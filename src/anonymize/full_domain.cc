#include "anonymize/full_domain.h"

namespace mdc {

void WriteLatticeNode(SnapshotWriter& writer, const LatticeNode& node) {
  writer.WriteI32Vec(node);
}

StatusOr<LatticeNode> ReadLatticeNode(SnapshotReader& reader) {
  return reader.ReadI32Vec();
}

void WriteLatticeNodeVec(SnapshotWriter& writer,
                         const std::vector<LatticeNode>& nodes) {
  writer.WriteU64(nodes.size());
  for (const LatticeNode& node : nodes) WriteLatticeNode(writer, node);
}

StatusOr<std::vector<LatticeNode>> ReadLatticeNodeVec(SnapshotReader& reader) {
  MDC_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
  // Each serialized node costs at least a u64 length prefix, so a count
  // beyond the remaining bytes is corrupt — reject before reserving.
  if (count > reader.remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("snapshot: node vector count exceeds data");
  }
  std::vector<LatticeNode> nodes;
  nodes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MDC_ASSIGN_OR_RETURN(LatticeNode node, ReadLatticeNode(reader));
    nodes.push_back(std::move(node));
  }
  return nodes;
}

double ProxyLoss(const Anonymization& anonymization,
                 const EquivalencePartition& partition) {
  (void)partition;
  double loss = 0.0;
  if (anonymization.scheme.has_value()) {
    loss += static_cast<double>(anonymization.scheme->TotalLevel());
  }
  if (anonymization.row_count() > 0) {
    loss += static_cast<double>(anonymization.SuppressedCount()) /
            static_cast<double>(anonymization.row_count());
  }
  return loss;
}

}  // namespace mdc

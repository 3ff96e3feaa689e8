#!/bin/sh
# Fails if the mdc archive defines a reference implementation that belongs
# in tests/oracle/ (mdc_oracle) instead of the production library.
#
# usage: check_libmdc.sh <nm> <libmdc.a>
set -eu
nm_tool=$1
archive=$2
symbols=$("$nm_tool" -C --defined-only "$archive")
# Guard against a vacuous pass: the archive must hold the production engine.
if ! printf '%s\n' "$symbols" | grep -q 'mdc::AllPairsCompare('; then
  echo "no production symbols found in $archive"
  exit 1
fi
found=$(printf '%s\n' "$symbols" | grep -E \
  '\b(EvaluateNode|LabelLoss|ComparePairScalar|CompareEngine|ParseCompareEngine)\b' \
  || true)
if [ -n "$found" ]; then
  echo "libmdc defines oracle symbols:"
  printf '%s\n' "$found"
  exit 1
fi
echo "libmdc defines no oracle symbols"

#!/bin/sh
# Usage: check_simd_boundary.sh NM LIBRARY
#
# Fails when an AVX2 object of LIBRARY defines a weak (W/V) or unique (u)
# symbol. Such a symbol is an inline function or template instantiation
# compiled with -mavx2; the linker keeps one copy of it for every caller,
# and if it picks the AVX2 copy, code outside the simd_available() guard
# runs AVX2 instructions on a pre-AVX2 CPU. The one exception is the EH
# personality reference (DW.ref.__gxx_personality_v0), which holds no code.
nm_tool=$1
library=$2
"$nm_tool" --defined-only "$library" | awk '
  /:$/ { member = $0; if (member ~ /_avx2[.]cpp[.]o:$/) ++objects }
  member ~ /_avx2[.]cpp[.]o:$/ && $2 ~ /^[WVu]$/ &&
      $3 != "DW.ref.__gxx_personality_v0" {
    print member " " $2 " " $3
    bad = 1
  }
  END {
    if (objects != 1) {
      print "expected 1 AVX2 object in the library, found " objects + 0
      bad = 1
    }
    exit bad
  }'

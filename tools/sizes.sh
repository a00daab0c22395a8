#!/usr/bin/env bash
# Prints the size of the code base in the measures a simplifying change
# reports before and after:
#
#   net Rust lines  every tracked .rs file outside vendor/ and perfbench/;
#   non-test lines  crates/*/src (subdirectories included) and src/, each
#                   file up to its first column-0 #[cfg(test)], so unit-test
#                   modules, tests/ and benches/ are out;
#   public items    `pub fn|struct|enum|trait|const|static|type|mod` lines in
#                   lba-core and lba-transport, and the same lines across
#                   every crate's src/ (subdirectories included);
#   panic sites     non-test, non-comment lines of compress, record,
#                   transport and core holding .unwrap(), .expect(, panic!(,
#                   unreachable!( or assert!/assert_eq!/assert_ne! (the
#                   debug_assert family is left out).
#
# It counts the files git tracks, so stage new files first. It only prints:
# it gates nothing and exits 0.
#
# Usage: tools/sizes.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

non_test='FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1}'

net=$(git ls-files '*.rs' | grep -v -e '^vendor/' -e '^perfbench/' | xargs cat | wc -l)
code=$(git ls-files 'crates/*/src/*.rs' 'src/*.rs' \
    | xargs awk "$non_test !t{n++} END{print n}")
pub_item='^\s*pub (fn|struct|enum|trait|const|static|type|mod) '
public=$(cat crates/core/src/*.rs crates/transport/src/*.rs | grep -cE "$pub_item")
public_all=$(git ls-files 'crates/*/src/*.rs' | xargs cat | grep -cE "$pub_item")

panics=() total=0
for crate in compress record transport core; do
    n=$(git ls-files "crates/$crate/src/*.rs" | xargs awk "$non_test"'
        !t && !/^[[:space:]]*\/\// &&
        /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|(^|[^_])assert(_eq|_ne)?!\(/{n++}
        END{print n+0}')
    panics+=("$crate $n")
    total=$((total + n))
done

echo "net Rust lines:  $net"
echo "non-test lines:  $code"
echo "public items:    $public (lba-core + lba-transport)"
echo "public items:    $public_all (every crate)"
echo "panic sites:     $total ($(IFS=,; echo "${panics[*]}" | sed 's/,/, /g'))"

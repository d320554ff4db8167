#!/usr/bin/env bash
# symbol_audit.sh — list the simulator functions that no program reaches.
#
#   tools/symbol_audit.sh [BUILD_DIR]            # default BUILD_DIR: build-audit
#   tools/symbol_audit.sh --inline [BUILD_DIR]   # default: build-audit-inline
#   tools/symbol_audit.sh --fields               # no build
#
# Builds the libraries and every program (the examples, the benches,
# tools/check_bench_json and perfbench's firefly_perfbench) at -O0 with one
# section per function, linked with --gc-sections.  At -O0 no call is
# inlined away, and the linker drops every function a program cannot reach.
# A `firefly::` text symbol that a library defines but no program keeps is
# reached only by tests, or by nothing: the script prints those, one
# demangled name a line, and appends them to $GITHUB_STEP_SUMMARY when that
# variable is set.  It is a report, not a gate: it exits 0 whatever the list
# holds.  Run it from the repository root.
#
# A header-inline function that nothing uses is never emitted into a
# library object, so the plain mode cannot list it however dead it is.
# --inline adds -fkeep-inline-functions, which emits every inline function
# a translation unit sees, and lists the same residue without lambdas,
# constructors and destructors (the compiler makes most of those, and a
# class whose members are used keeps its constructors).  An always_inline
# function has no out-of-line copy in any program, so this mode lists it
# apart as a known false positive.  Templates stay outside both modes: one
# that nothing instantiates is emitted nowhere.
#
# --fields builds nothing.  It greps the headers of the configuration
# structs (ProtocolParams, FaultPlan, RadioParams, ServiceConfig,
# ScenarioConfig) for their non-static data members and lists each one that
# no program writes, i.e. with no `.name =` or `.name{` in src/, bench/,
# examples/, tools/ or perfbench/ (a write to one of its own members,
# `.name.x =`, counts); such a field is either a constant or a test-only
# knob.  Each entry says whether tests/ writes it.  The grep sees
# only those two spellings: a write through `->`, a compound assignment, a
# positional aggregate initialiser or a whole-struct copy goes unseen, and a
# write to another struct's member of the same name counts as a write.  A
# member is a line at the struct's first indent that declares one name and
# holds no parenthesis once its comment is stripped, so a member function
# or a declaration spread over two lines is skipped.
set -euo pipefail

# Lists the non-static data members of struct $1 defined in header $2.
struct_fields() {
  STRUCT="$1" perl -ne '
    if (/^struct \Q$ENV{STRUCT}\E\b.*\{\s*$/) { $in = 1; next }
    next unless $in;
    if (/^\};/) { $in = 0; next }
    s{//.*}{};
    next if /\(/ || !/^  \S/ || /^\s*static\b/;
    print "$1\n" if /(\w+)\s*(?:\{[^}]*\}|=[^;]*)?;\s*$/;' "$2"
}

if [ "${1:-}" = --fields ]; then
  title="config fields no program writes"
  write_dirs=(src bench examples tools perfbench)
  residue=""
  for entry in ProtocolParams:src/core/params.hpp FaultPlan:src/fault/fault_plan.hpp \
               RadioParams:src/phy/channel.hpp ServiceConfig:src/core/service_mode.hpp \
               ScenarioConfig:src/core/scenario.hpp; do
    struct=${entry%%:*}
    for field in $(struct_fields "$struct" "${entry#*:}"); do
      write="\\.$field(\\.[[:alnum:]_]+)*[[:space:]]*(=([^=]|$)|\\{)"
      grep -rEq --include='*.cpp' --include='*.hpp' "$write" "${write_dirs[@]}" && continue
      if grep -rEq --include='*.cpp' --include='*.hpp' "$write" tests; then
        residue+="$struct::$field (tests write it)"$'\n'
      else
        residue+="$struct::$field (nothing writes it)"$'\n'
      fi
    done
  done
  residue=${residue%$'\n'}
  count=$(printf '%s' "$residue" | grep -c . || true)
  echo "$title: $count"
  [ -n "$residue" ] && printf '%s\n' "$residue"
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
      echo '### Config field audit'
      echo
      echo '```'
      echo "$title: $count"
      [ -n "$residue" ] && printf '%s\n' "$residue"
      echo '```'
    } >> "$GITHUB_STEP_SUMMARY"
  fi
  exit 0
fi

inline=0
cxx_flags="-O0 -ffunction-sections -fdata-sections"
default_dir=build-audit
if [ "${1:-}" = --inline ]; then
  inline=1
  cxx_flags+=" -fkeep-inline-functions"
  default_dir=build-audit-inline
  shift
fi
build_dir=${1:-$default_dir}
jobs=$(nproc)
link_flags="-Wl,--gc-sections"

programs=()
program_files=("$build_dir/perfbench/firefly_perfbench")
for src in examples/*.cpp bench/bench_*.cpp tools/*.cpp; do
  programs+=("$(basename "$src" .cpp)")
  program_files+=("$build_dir/${src%.cpp}")
done

cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$cxx_flags" \
  -DCMAKE_EXE_LINKER_FLAGS="$link_flags" > /dev/null
cmake --build "$build_dir" -j "$jobs" --target "${programs[@]}" > /dev/null
cmake -S perfbench -B "$build_dir/perfbench" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$cxx_flags" -DCMAKE_EXE_LINKER_FLAGS="$link_flags" > /dev/null
cmake --build "$build_dir/perfbench" -j "$jobs" --target firefly_perfbench > /dev/null

# Demangled names of the functions (nm types T, t, W) in namespace firefly,
# lambdas inside them included.  The filter runs on the mangled names, so
# std:: templates instantiated on firefly types stay out; demangling merges
# a constructor's or destructor's complete/base/deleting variants into one.
firefly_functions() {
  nm --defined-only "$@" 2> /dev/null | awk '$2 ~ /^[TtW]$/ { print $3 }' |
    grep -E '^_ZZ?N[VKRO]*7firefly' | c++filt | sort -u
}

library_objects=$(find "$build_dir/src" -name '*.o')

# shellcheck disable=SC2086  # one path per word
residue=$(comm -23 <(firefly_functions $library_objects) \
                   <(firefly_functions "${program_files[@]}"))
title="firefly:: functions no program reaches"
false_positives=""
if [ "$inline" = 1 ]; then
  title="firefly:: inline functions no program reaches"
  # Drop lambdas, then every Class::Class or Class::~Class (template
  # arguments and the parameter list stripped before the compare).
  residue=$(printf '%s\n' "$residue" | grep -v '{lambda' | perl -ne '
    my $n = $_;
    1 while $n =~ s/<[^<>]*>//g;
    $n =~ s/\(.*//s;
    print unless $n =~ /(?:^|::)(\w+)::~?\1$/;' || true)
  false_positives=$(printf '%s\n' "$residue" | grep -F 'NeighborTable::prefetch' || true)
  residue=$(printf '%s\n' "$residue" | grep -vF 'NeighborTable::prefetch' || true)
fi
count=$(printf '%s' "$residue" | grep -c . || true)

report() {
  echo "$title: $count"
  [ -n "$residue" ] && printf '%s\n' "$residue"
  if [ -n "$false_positives" ]; then
    echo "known false positives (always_inline, so no program keeps a copy):"
    printf '%s\n' "$false_positives"
  fi
  return 0
}

report
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo '### Symbol audit'
    echo
    echo '```'
    report
    echo '```'
  } >> "$GITHUB_STEP_SUMMARY"
fi
exit 0

#pragma once

/// \file annotations.hpp
/// Function attributes that declare hot-path and concurrency discipline,
/// checked by the project static analyzer (`tools/analyze/mldcs_analyze.py`,
/// docs/CORRECTNESS.md "Static analysis").
///
/// The engine's performance contract is behavioral, not structural: the
/// skyline workspace path must stay 0 allocs/op, the per-relay inner loop
/// must never take a lock, and nothing in the compiler enforces either.
/// These macros make the contract part of the *source*: a function marked
/// `MLDCS_HOT_PATH` roots an allocation-discipline scan of everything it
/// can reach, `MLDCS_NO_LOCK` roots a blocking-call scan, and
/// `MLDCS_ALLOC_OK` exempts a deliberately-allocating subtree (convenience
/// overloads, rare-by-design maintenance like store compaction).
///
/// The macros expand to nothing on every compiler, so they cost nothing:
/// the analyzer reads the markers from the source text, and the discipline
/// is enforced whichever compiler built the tree.
///
/// Placement: before the return type, on both declaration and definition
/// (the analyzer accepts either, but keeping them paired is what makes the
/// contract visible at the call site *and* the implementation):
///
///   MLDCS_HOT_PATH MLDCS_NO_LOCK
///   void compute_skyline_arcs(...);
///
/// Suppression of individual findings uses an inline marker, not the
/// macros: `// mldcs-analyze:allow(<rule>): <reason>` on (or on the line
/// before) the offending line.  See docs/CORRECTNESS.md for the rule
/// vocabulary and the baseline workflow.

/// Roots the `hot-no-alloc` rule: this function and everything reachable
/// from it must not allocate (no new/malloc, no fresh owning containers);
/// growth of caller-owned scratch (reference parameters, members) is
/// permitted — that is the amortized-zero steady-state pattern.
#define MLDCS_HOT_PATH

/// Roots the `lock-discipline` rule: this function and everything
/// reachable from it must not take a std::mutex (or friends), wait on a
/// condition variable, sleep, or join a thread.
#define MLDCS_NO_LOCK

/// Exempts a function from `hot-no-alloc` scans that reach it: it may
/// allocate, and the scan does not descend into it.  For allocating
/// convenience overloads and rare-by-design maintenance paths.
#define MLDCS_ALLOC_OK

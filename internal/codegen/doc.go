// Package codegen lowers scheduled array comprehensions to the
// imperative loop IR (thunkless compilation, sections 8 and 9) and
// provides the thunked fallback evaluator used when no safe static
// schedule exists (and as the semantics oracle the compiled code is
// tested against).
//
// The lowering walks the schedule tree: loop passes become DO loops
// with the scheduled direction, clauses become element assignments,
// guards become conditionals, and let bindings are inlined (they are
// pure). Runtime checks — write-collision tests, definedness tests,
// bounds tests — are emitted only where the analysis failed to
// discharge them statically.
//
// For bigupd definitions the generator first checks which anti
// dependences the schedule satisfies; the violated ones are broken by
// node splitting (section 9) in three tiers: a per-instance scalar for
// same-instance kills (the LINPACK row-swap pattern), a row snapshot
// taken before each inner pass for kills one iteration earlier (the
// Jacobi pattern), and a whole-array entry copy as the general
// fallback (naive compilation).
package codegen

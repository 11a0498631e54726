package loopir

// WalkLoops calls fn for every Loop in the statement tree, outermost
// first. Instrumentation (the compile report's schedules-by-kind
// counters) and tests use it to inspect what the optimizer attached
// without duplicating the traversal.
func WalkLoops(stmts []Stmt, fn func(*Loop)) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *Loop:
			fn(st)
			WalkLoops(st.Body, fn)
		case *If:
			WalkLoops(st.Then, fn)
			WalkLoops(st.Else, fn)
		}
	}
}

// ScheduleKind names a loop's execution shape for reporting: the Par
// schedule's kind ("shard" or "wavefront") when one is attached, else
// "sequential". The Parallel and Doacross marks
// alone never change execution, so they do not count.
func ScheduleKind(l *Loop) string {
	if l.Par != nil {
		return l.Par.Kind.String()
	}
	return "sequential"
}

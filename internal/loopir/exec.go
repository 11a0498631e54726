package loopir

import (
	"fmt"
	goruntime "runtime"

	"arraycomp/internal/runtime"
)

// SetWorkers fixes the parallel worker budget for subsequent runs of
// this executable. n <= 0 restores the default: GOMAXPROCS at the time
// each run starts. n == 1 forces sequential execution.
func (ex *Exec) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	ex.workers = n
}

// Run executes the compiled program. inputs supplies every RoleIn and
// RoleInOut array (bounds must match the declarations); RoleOut and
// RoleTemp arrays are allocated fresh. The result maps the names of
// RoleOut and RoleInOut arrays to their final contents. RoleInOut
// arrays are mutated in place — callers wanting persistence must clone
// first (that is the whole point of the paper's section 9: the
// analysis has proven the old version dead).
func (ex *Exec) Run(inputs map[string]*runtime.Strict) (map[string]*runtime.Strict, error) {
	f := &frame{
		ints:    make([]int64, len(ex.intSlots)),
		floats:  make([]float64, len(ex.floatSlots)),
		arrays:  make([]*runtime.Strict, len(ex.prog.Arrays)),
		defs:    make([][]bool, len(ex.prog.Arrays)),
		workers: ex.workers,
	}
	if f.workers <= 0 {
		f.workers = goruntime.GOMAXPROCS(0)
	}
	for i, d := range ex.prog.Arrays {
		switch d.Role {
		case RoleIn, RoleInOut:
			in, ok := inputs[d.Name]
			if !ok {
				return nil, &ExecError{Program: ex.prog.Name, Msg: fmt.Sprintf("missing input array %q", d.Name)}
			}
			if !in.B.Equal(d.B) {
				return nil, &ExecError{Program: ex.prog.Name, Msg: fmt.Sprintf("input array %q has bounds %s, declared %s", d.Name, in.B, d.B)}
			}
			f.arrays[i] = in
		case RoleOut, RoleTemp:
			f.arrays[i] = runtime.NewStrict(d.B)
		}
		if d.TrackDefs {
			f.defs[i] = make([]bool, d.B.Size())
		}
	}
	if err := ex.exec(f); err != nil {
		return nil, err
	}
	out := map[string]*runtime.Strict{}
	for i, d := range ex.prog.Arrays {
		if d.Role == RoleOut || d.Role == RoleInOut {
			out[d.Name] = f.arrays[i]
		}
	}
	return out, nil
}

// RunResult is a convenience wrapper returning the single result array
// of a program with exactly one RoleOut/RoleInOut declaration.
func (ex *Exec) RunResult(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	outs, err := ex.Run(inputs)
	if err != nil {
		return nil, err
	}
	if len(outs) != 1 {
		return nil, &ExecError{Program: ex.prog.Name, Msg: fmt.Sprintf("program has %d result arrays, want 1", len(outs))}
	}
	for _, a := range outs {
		return a, nil
	}
	panic("unreachable")
}

func (ex *Exec) exec(f *frame) (err error) {
	defer catchExec(&err)
	runAll(ex.run, f)
	return nil
}

// Program returns the source IR of the compiled executable.
func (ex *Exec) Program() *Program { return ex.prog }

package core

import (
	"sync"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/runtime"
)

// TestConcurrentProgramReuse compiles once and runs the same Program
// from many goroutines at once (each on private inputs). Compiled
// artifacts are meant to be reusable — Exec allocates a fresh frame
// per run and the thunked evaluator builds a fresh non-strict array —
// and this test makes the race detector prove it for every
// representation: thunkless plans, copy-update and in-place bigupd
// plans, parallel plans, and the thunked fallback with its blackhole
// bookkeeping.
//
// Note the non-strict runtime itself is single-goroutine by design
// (blackhole detection has no goroutine identity, so two goroutines
// must never share one evaluation in flight); concurrency here is
// always across independent runs.
func TestConcurrentProgramReuse(t *testing.T) {
	mkInput := func() *runtime.Strict {
		u := runtime.NewStrict(runtime.NewBounds1(0, 9))
		for i := range u.Data {
			u.Data[i] = float64(i) + 0.25
		}
		return u
	}
	bounds := map[string]analysis.ArrayBounds{"u": {Lo: []int64{0}, Hi: []int64{9}}}

	cases := []struct {
		name string
		src  string
		opts Options
		mode string // expected Mode() of the result def, "" = don't care
	}{
		{
			name: "thunkless recurrence",
			src:  `a = array (0,9) ([ 0 := u!0 ] ++ [* [ i := 0.5 * a!(i-1) + u!i ] | i <- [1..9] *])`,
			mode: "thunkless",
		},
		{
			name: "copy-update bigupd with live source",
			src: `letrec*
			  a = bigupd u [* [ i := 2 * u!i ] | i <- [1..8] *];
			  b = array (0,9) [* [ i := a!i + u!i ] | i <- [0..9] *];
			in b`,
		},
		{
			name: "in-place bigupd of a dead source",
			src: `letrec*
			  a = bigupd u [* [ i := 2 * u!i ] | i <- [1..8] *];
			  b = bigupd a [* [ i := a!(i-1) + a!(i+1) ] | i <- [1..8] *];
			in b`,
			mode: "in-place",
		},
		{
			name: "strip kernel with scratch strips",
			src:  `a = accumArray (+) 1.0 (0,9) [* [ i := u!i * 0.5 - 0.25 * u!i ] | i <- [0..9] *]`,
		},
		{
			name: "parallel plan",
			src:  `a = array (0,9) [* [ i := 3 * u!i ] | i <- [0..9] *]`,
			opts: Options{Parallel: true},
		},
		{
			name: "thunked fallback",
			src:  `a = array (0,9) [* [ i := u!i + (if i > 4 then a!(i mod 3) else 0) ] | i <- [0..9] *]`,
			opts: Options{ForceThunked: true},
			mode: "thunked",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.InputBounds = bounds
			p := compile(t, tc.src, nil, opts)
			if tc.mode != "" {
				if m := p.Defs[p.Result].Mode(); m != tc.mode {
					t.Fatalf("result compiled %s, want %s:\n%s", m, tc.mode, p.Report())
				}
			}
			want, err := p.Run(map[string]*runtime.Strict{"u": mkInput()})
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			const goroutines = 8
			const runs = 25
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < runs; r++ {
						got, err := p.Run(map[string]*runtime.Strict{"u": mkInput()})
						if err != nil {
							errs <- err
							return
						}
						if !got.EqualWithin(want, 0) {
							errs <- errNotEqual
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

var errNotEqual = &runError{"concurrent run result differs from baseline"}

type runError struct{ msg string }

func (e *runError) Error() string { return e.msg }

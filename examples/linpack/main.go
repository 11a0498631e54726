// LINPACK fragments: the in-place update patterns of the paper's
// section 9 — row interchange (the anti-dependence cycle broken by a
// per-instance scalar), row scaling, and row SAXPY — composed into one
// step of partial-pivoting Gaussian elimination. Each fragment updates
// the caller's matrix, which the caller keeps, so it compiles to a
// copy-update (one copy, old values read from the kept input); an
// update of an array nothing reads afterwards compiles in place.
package main

import (
	"fmt"
	"log"

	"arraycomp"
)

const pivotStep = `param m, n, p, r;
letrec*
  swapped = bigupd a
    [* [ (p,j) := a!(r,j) ] ++ [ (r,j) := a!(p,j) ] | j <- [1..n] *];
in swapped`

const scaleStep = `param m, n, p, r;
a2 = bigupd a [ (p,j) := a!(p,j) / a!(p,p) | j <- [1..n] ]`

const saxpyStep = `param m, n, p, r;
a2 = bigupd a [ (r,j) := a!(r,j) - a!(r,p) * a!(p,j) | j <- [1..n] ]`

func main() {
	m, n := int64(4), int64(4)
	opts := func() *arraycomp.Options {
		return &arraycomp.Options{Inputs: map[string]arraycomp.InputBounds{
			"a": {Lo: []int64{1, 1}, Hi: []int64{m, n}},
		}}
	}

	a := arraycomp.NewArray2(1, 1, m, n)
	data := [][]float64{
		{0, 2, 1, 4},
		{4, 1, 2, 1},
		{2, 3, 3, 2},
		{1, 2, 4, 3},
	}
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= n; j++ {
			a.Set(data[i-1][j-1], i, j)
		}
	}
	fmt.Println("input matrix:")
	print2(a, m, n)

	// Pivot: swap row 1 (zero pivot) with row 2.
	params := arraycomp.Params{"m": m, "n": n, "p": 1, "r": 2}
	run := func(src string, cur *arraycomp.Array) *arraycomp.Array {
		prog, err := arraycomp.Compile(src, params, opts())
		if err != nil {
			log.Fatal(err)
		}
		def := prog.Definitions()[len(prog.Definitions())-1]
		mode, _ := prog.Mode(def)
		fmt.Printf("-- %s compiled %s\n", def, mode)
		out, err := prog.Run(map[string]*arraycomp.Array{"a": cur})
		if err != nil {
			log.Fatal(err)
		}
		return out
	}

	cur := run(pivotStep, a)
	fmt.Println("after row interchange (rows 1 and 2):")
	print2(cur, m, n)

	cur = run(scaleStep, cur)
	fmt.Println("after scaling the pivot row by the pivot:")
	print2(cur, m, n)

	cur = run(saxpyStep, cur)
	fmt.Println("after eliminating row 2 with a SAXPY:")
	print2(cur, m, n)

	fmt.Println("original input is untouched (persistent semantics):")
	print2(a, m, n)
}

func print2(a *arraycomp.Array, m, n int64) {
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= n; j++ {
			fmt.Printf("%8.3f", a.At(i, j))
		}
		fmt.Println()
	}
	fmt.Println()
}

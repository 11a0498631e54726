// Jacobi: iterative solution of Laplace's equation on a square mesh
// using the paper's section 9 semi-monolithic update. Every neighbour
// read refers to the OLD mesh (`a`). Each sweep's Run keeps its input
// (the residual compares it with the result), so the step compiles to
// a copy-update: the plan copies the mesh into the result once and
// reads every neighbour from the kept old mesh, a dependence-free nest.
// Where the old mesh is dead after the update (a second sweep in the
// same program), node splitting instead copies the old current row and
// keeps the old previous row in row buffers, as a hand-coded Jacobi
// would, and updates the mesh in place.
package main

import (
	"fmt"
	"log"
	"math"

	"arraycomp"
)

const step = `param n;
a2 = bigupd a
  [* [ (i,j) := 0.25 * (a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + a!(i,j+1)) ]
   | i <- [2..n-1], j <- [2..n-1] *]`

func main() {
	n := int64(24)
	prog, err := arraycomp.Compile(step, arraycomp.Params{"n": n},
		&arraycomp.Options{Inputs: map[string]arraycomp.InputBounds{
			"a": {Lo: []int64{1, 1}, Hi: []int64{n, n}},
		}})
	if err != nil {
		log.Fatal(err)
	}
	mode, _ := prog.Mode("a2")
	fmt.Printf("jacobi step compiled %s\n", mode)
	for _, note := range prog.Notes() {
		fmt.Println("  ", note)
	}

	// Boundary conditions: top edge held at 100, the rest at 0.
	mesh := arraycomp.NewArray2(1, 1, n, n)
	for j := int64(1); j <= n; j++ {
		mesh.Set(100, 1, j)
	}

	fmt.Println("\nsweeping until the residual falls below 1e-4:")
	prev := mesh
	for sweep := 1; sweep <= 10000; sweep++ {
		next, err := prog.Run(map[string]*arraycomp.Array{"a": prev})
		if err != nil {
			log.Fatal(err)
		}
		if sweep%200 == 0 || sweep == 1 {
			fmt.Printf("  sweep %5d: center = %8.4f, residual = %.6f\n",
				sweep, next.At(n/2, n/2), residual(prev, next))
		}
		if residual(prev, next) < 1e-4 {
			fmt.Printf("converged after %d sweeps; center value %.4f\n",
				sweep, next.At(n/2, n/2))
			return
		}
		prev = next
	}
	fmt.Println("did not converge in 10000 sweeps")
}

func residual(a, b *arraycomp.Array) float64 {
	var r float64
	for i := range a.Data {
		r = math.Max(r, math.Abs(a.Data[i]-b.Data[i]))
	}
	return r
}

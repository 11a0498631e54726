// Livermore Loops Kernel 23 (2-D implicit hydrodynamics fragment): the
// paper notes it shares the Gauss-Seidel northwest-to-southeast
// wavefront structure, so the compiled update needs no temporaries. Over
// the caller's mesh it is a copy-update: one copy, then old values are
// read from the kept mesh. This example measures the compiled step against the thunked baseline
// on the same inputs.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"arraycomp"
)

const kernel23 = `param n;
za2 = bigupd za
  [* [ (j,k) := za!(j,k) + 0.175 *
         (zr!(j,k) * (za2!(j-1,k) - za!(j,k)) +
          zb!(j,k) * (za2!(j,k-1) - za!(j,k)) +
          zu!(j,k) * (za!(j+1,k)  - za!(j,k)) +
          zv!(j,k) * (za!(j,k+1)  - za!(j,k))) ]
   | j <- [2..n-1], k <- [2..n-1] *]`

func mesh(n int64, rng *rand.Rand) *arraycomp.Array {
	a := arraycomp.NewArray2(1, 1, n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	return a
}

func main() {
	n := int64(96)
	rng := rand.New(rand.NewSource(23))
	inputs := map[string]*arraycomp.Array{
		"za": mesh(n, rng), "zr": mesh(n, rng), "zb": mesh(n, rng),
		"zu": mesh(n, rng), "zv": mesh(n, rng),
	}
	bounds := map[string]arraycomp.InputBounds{}
	for name := range inputs {
		bounds[name] = arraycomp.InputBounds{Lo: []int64{1, 1}, Hi: []int64{n, n}}
	}

	compiled, err := arraycomp.Compile(kernel23, arraycomp.Params{"n": n},
		&arraycomp.Options{Inputs: bounds})
	if err != nil {
		log.Fatal(err)
	}
	thunked, err := arraycomp.Compile(kernel23, arraycomp.Params{"n": n},
		&arraycomp.Options{Inputs: bounds, ForceThunked: true})
	if err != nil {
		log.Fatal(err)
	}
	mode, _ := compiled.Mode("za2")
	fmt.Printf("kernel 23 compiled %s over a %d×%d mesh\n\n", mode, n, n)

	const sweeps = 10
	t0 := time.Now()
	var outC *arraycomp.Array
	for s := 0; s < sweeps; s++ {
		outC, err = compiled.Run(inputs)
		if err != nil {
			log.Fatal(err)
		}
	}
	dtC := time.Since(t0)

	t0 = time.Now()
	var outT *arraycomp.Array
	for s := 0; s < sweeps; s++ {
		outT, err = thunked.Run(inputs)
		if err != nil {
			log.Fatal(err)
		}
	}
	dtT := time.Since(t0)

	if !outC.EqualWithin(outT, 1e-9) {
		log.Fatal("compiled and thunked results diverge")
	}
	fmt.Printf("compiled:            %v for %d sweeps\n", dtC, sweeps)
	fmt.Printf("thunked  (general):  %v for %d sweeps\n", dtT, sweeps)
	fmt.Printf("speedup: %.1fx; za2(2,2) = %.6f (identical in both)\n",
		float64(dtT)/float64(dtC), outC.At(2, 2))
}

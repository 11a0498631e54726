package core_test

// Copy-update plans: a bigupd whose source outlives the update (here,
// always the caller's input) copies the source into a fresh result and
// reads old values from the kept source. These tests pin the plan
// shape, the caller's input staying bitwise unchanged in every tier,
// error determinism across worker widths, and the certifier catching a
// shard that reads old values from the result instead.

import (
	"strings"
	"testing"

	"arraycomp/internal/certify"
	"arraycomp/internal/core"
	"arraycomp/internal/loopir"
	"arraycomp/internal/native"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// copyUpdateCases are the section 9 updates over caller-owned arrays.
func copyUpdateCases(n int64) []tierCase {
	return []tierCase{
		{name: "sor", src: workloads.SORSrc, params: workloads.ParamsFor("sor", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 5)}},
		{name: "jacobi", src: workloads.JacobiSrc, params: workloads.ParamsFor("jacobi", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 4)}},
		{name: "livermore23", src: workloads.Livermore23Src, params: workloads.ParamsFor("livermore23", n),
			inputs: workloads.Livermore23Inputs(n)},
		{name: "rowswap", src: workloads.RowSwapSrc, params: workloads.ParamsFor("rowswap", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 1)}},
	}
}

// meshOptions compiles the n=384 kernels the way the benchmark does:
// Parallel at two workers.
func meshOptions(inputs map[string]*runtime.Strict) core.Options {
	return core.Options{Parallel: true, Workers: 2, InputBounds: boundsOf(inputs)}
}

func TestCopyUpdateJacobiShardsSORWavefront(t *testing.T) {
	const n = 384
	in := map[string]*runtime.Strict{"a": workloads.Mesh(n, 1)}
	params := map[string]int64{"n": n}

	jac, err := core.Compile(workloads.JacobiSrc, params, meshOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	cd := jac.Defs["a2"]
	dump := cd.Plan.Program.Dump()
	if cd.Mode() != "copy-update" || !strings.Contains(dump, "copy a2 <- a") || !strings.Contains(dump, "[shard]") {
		t.Fatalf("jacobi over the caller's a: mode %s, want copy-update with `copy a2 <- a` and a [shard] nest:\n%s", cd.Mode(), dump)
	}
	if strings.Contains(dump, "row$") || strings.Contains(dump, "rowsave$") {
		t.Fatalf("copy-update jacobi must not node-split:\n%s", dump)
	}
	const why = "source a live after the update: copy-update, old values read from a"
	if !strings.Contains(strings.Join(cd.Plan.Notes, "\n"), why) {
		t.Errorf("plan notes miss %q:\n%s", why, strings.Join(cd.Plan.Notes, "\n"))
	}

	sor, err := core.Compile(workloads.SORSrc, params, meshOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	if dump := sor.Defs["a2"].Plan.Program.Dump(); !strings.Contains(dump, "[wavefront") {
		t.Fatalf("copy-update SOR must keep its wavefront:\n%s", dump)
	}
}

// restored round-trips p through its durable form, the disk tier's
// payload.
func restored(t *testing.T, p *core.Program, opts core.Options) *core.Program {
	t.Helper()
	s, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := &core.Snapshot{}
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	r, err := core.RestoreSnapshot(dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCopyUpdateLeavesCallerInput(t *testing.T) {
	const n = 64
	cases := copyUpdateCases(n)
	progs := make([]*core.Program, len(cases))
	var specs []native.ProgramSpec
	for i, tc := range cases {
		opts := meshOptions(tc.inputs)
		opts.Certify = true
		p, err := core.Compile(tc.src, tc.params, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		progs[i] = p
		spec, err := p.NativeSpec(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		specs = append(specs, spec)
	}
	mod, err := native.Build(specs)
	if err != nil {
		t.Fatalf("native batch build: %v", err)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := progs[i]
			if m := p.Defs[p.Result].Mode(); m != "copy-update" {
				t.Fatalf("mode %s, want copy-update", m)
			}
			orig := map[string]*runtime.Strict{}
			for name, a := range tc.inputs {
				orig[name] = a.Clone()
			}
			unchanged := func(tier string) {
				t.Helper()
				for name, a := range tc.inputs {
					bitwiseEqual(t, tier+" run vs the caller's original "+name, orig[name], a)
				}
			}
			want, err := p.Run(tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			unchanged("interpreted")
			opts := meshOptions(tc.inputs)
			opts.Certify = true
			got, err := restored(t, p, opts).Run(tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			unchanged("disk-restored")
			bitwiseEqual(t, "interpreted vs disk-restored", want, got)
			p.AdoptNative(mod.Plan(tc.name))
			got, tier, err := p.RunTiered(tc.inputs)
			if err != nil || tier != core.TierNative {
				t.Fatalf("native run: tier %q, err %v", tier, err)
			}
			unchanged("native")
			bitwiseEqual(t, "interpreted vs native", want, got)
		})
	}
}

func TestCopyUpdateErrorsWidthInvariant(t *testing.T) {
	// Rows i > n-1-s read a!(i+s,j) past the mesh. A shard runs rows
	// out of order, yet must report the lowest failing iteration.
	src := `param n, s;
	a2 = bigupd a [* [ (i,j) := a!(i-1,j) + a!(i+s,j) ] | i <- [2..n-1], j <- [2..n-1] *]`
	const n = 384
	in := map[string]*runtime.Strict{"a": workloads.Mesh(n, 2)}
	params := map[string]int64{"n": n, "s": 200}
	var first string
	for _, w := range []int{1, 2, 4} {
		opts := meshOptions(in)
		opts.Workers = w
		p, err := core.Compile(src, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dump := p.Defs["a2"].Plan.Program.Dump(); w > 1 && !strings.Contains(dump, "[shard]") {
			t.Fatalf("workers %d: want a sharded copy-update nest:\n%s", w, dump)
		}
		_, err = p.Run(in)
		if err == nil {
			t.Fatalf("workers %d: out-of-bounds read not reported", w)
		}
		if w == 1 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("workers %d: error %q, want %q as at one worker", w, err, first)
		}
	}
	const want = "loopir: a2: array a: subscript 385 out of bounds [1..384] in dimension 0"
	if first != want {
		t.Fatalf("error %q, want %q", first, want)
	}
}

func TestCopyUpdateNewValueReadOutOfBounds(t *testing.T) {
	// The new-value read a2!(i+3) goes to the result array, so the
	// message names a2 (an in-place plan named the source).
	src := `param n;
	a2 = bigupd a [ i := a!i + a2!(i+3) | i <- [1..n] ]`
	in := map[string]*runtime.Strict{"a": workloads.Vector(8, 3)}
	p, err := core.Compile(src, map[string]int64{"n": 8}, core.Options{InputBounds: boundsOf(in)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(in)
	const want = "loopir: a2: array a2: subscript 11 out of bounds [1..8] in dimension 0"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// retarget renames every read of array from to array to.
func retarget(stmts []loopir.Stmt, from, to string) {
	var val func(e loopir.VExpr)
	val = func(e loopir.VExpr) {
		switch x := e.(type) {
		case *loopir.ARef:
			if x.Array == from {
				x.Array = to
			}
		case *loopir.VBin:
			val(x.L)
			val(x.R)
		case *loopir.VNeg:
			val(x.X)
		}
	}
	for _, s := range stmts {
		switch x := s.(type) {
		case *loopir.Assign:
			val(x.Rhs)
		case *loopir.Loop:
			retarget(x.Body, from, to)
		case *loopir.If:
			retarget(x.Then, from, to)
			retarget(x.Else, from, to)
		}
	}
}

func TestCertifyPlansFalsifiesForgedCopyUpdateShard(t *testing.T) {
	// Copy-update Jacobi shards because its old-value reads go to the
	// kept source. Forge the shard to read the result array instead:
	// rows then read neighbours other rows write, and the plan
	// certifier must refuse the shard with a witness.
	const n = 384
	in := map[string]*runtime.Strict{"a": workloads.Mesh(n, 1)}
	opts := meshOptions(in)
	opts.Certify = true
	p, err := core.Compile(workloads.JacobiSrc, map[string]int64{"n": n}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Defs["a2"].Plan.Program
	if rep := loopir.CertifyPlans(prog); rep.FalsifiedCount != 0 || rep.CertifiedCount == 0 {
		t.Fatalf("honest copy-update shard: %s", rep.Summary())
	}
	retarget(prog.Stmts, "a", "a2")
	rep := loopir.CertifyPlans(prog)
	if rep.FalsifiedCount == 0 {
		t.Fatalf("forged shard survived certification: %s", rep.Summary())
	}
	if f := rep.Failures[0]; f.Status != certify.Falsified || len(f.Witness) == 0 {
		t.Fatalf("falsification carries no witness: %s", f)
	}
}

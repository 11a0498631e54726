package oracle

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"arraycomp/internal/gogen"
	"arraycomp/internal/runtime"
)

// RunGogenBatch emits every gogen-eligible case as functions inside a
// single Go main package, runs it once with `go run`, and compares
// each case's printed result against its reference outcome. Batching
// matters: one toolchain invocation per corpus instead of one per
// program keeps a 200-program short-mode run in seconds. Scheduled
// loops run on gogen's sequential Runners; the native leg runs the same
// kernels on the parallel executors.
//
// Cases that fail emission (a plan uses an IR feature gogen does not
// cover yet) are skipped, not failed: emission coverage is a separate
// concern from semantic agreement. Mismatches are appended to each
// case's Mismatches with backend "gogen".
func RunGogenBatch(cases []*Case) {
	if _, err := exec.LookPath("go"); err != nil {
		return
	}
	type emitted struct {
		c      *Case
		driver string // body of the per-case run function
		funcs  []string
	}
	var batch []emitted
	for _, c := range cases {
		if !c.GogenEligible || c.fullProg == nil {
			continue
		}
		funcs, driver, err := emitCase(c, len(batch))
		if err != nil {
			continue
		}
		batch = append(batch, emitted{c: c, driver: driver, funcs: funcs})
	}
	if len(batch) == 0 {
		return
	}

	var b strings.Builder
	b.WriteString("package main\n\n")
	b.WriteString("import (\n\t\"fmt\"\n\t\"math\"\n)\n\n")
	b.WriteString("var _ = math.Abs\n\n")
	b.WriteString(gogen.Runners + "\n")
	b.WriteString("// fill loads deterministic dyadic inputs, mirroring oracle.lcgFill.\n")
	b.WriteString("func fill(n int, seed uint64) []float64 {\n")
	b.WriteString("\tout := make([]float64, n)\n\tx := seed\n\tfor i := range out {\n")
	b.WriteString("\t\tx = x*6364136223846793005 + 1442695040888963407\n")
	b.WriteString("\t\tout[i] = float64((x>>33)&0xFFFF) / 65536.0\n\t}\n\treturn out\n}\n\n")
	b.WriteString("func main() {\n")
	for i := range batch {
		fmt.Fprintf(&b, "\trunCase%d()\n", i)
	}
	b.WriteString("}\n\n")
	for i, e := range batch {
		fmt.Fprintf(&b, "func runCase%d() {\n", i)
		fmt.Fprintf(&b, "\tdefer func() {\n\t\tif r := recover(); r != nil {\n\t\t\tfmt.Printf(\"case %d panic %%v\\n\", r)\n\t\t}\n\t}()\n", i)
		b.WriteString(strings.ReplaceAll(e.driver, "%CASE%", strconv.Itoa(i)))
		b.WriteString("}\n\n")
		for _, f := range e.funcs {
			b.WriteString(f)
			b.WriteString("\n")
		}
	}

	dir, err := os.MkdirTemp("", "oracle-gogen")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(b.String()), 0o644); err != nil {
		return
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.24\n"), 0o644); err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		// A build failure of the emitted batch is itself a gogen bug:
		// report it against every batched case rather than dropping it.
		detail := fmt.Sprintf("go run failed: %v: %s", err, truncate(string(out), 400))
		for _, e := range batch {
			e.c.Mismatches = append(e.c.Mismatches, Mismatch{Backend: "gogen", Detail: detail})
		}
		return
	}

	// Parse "case <i> ok <n> v…" / "case <i> err <msg>" lines.
	outcomes := map[int]Outcome{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || fields[0] != "case" {
			continue
		}
		idx, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		if fields[2] == "err" || fields[2] == "panic" {
			outcomes[idx] = Outcome{Err: strings.Join(fields[3:], " "), Panicked: fields[2] == "panic"}
			continue
		}
		vals := make([]float64, 0, len(fields)-4)
		bad := false
		for _, f := range fields[4:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				bad = true
				break
			}
			vals = append(vals, v)
		}
		if bad {
			continue
		}
		outcomes[idx] = Outcome{Value: valueFromFlat(vals)}
	}

	for i, e := range batch {
		got, ok := outcomes[i]
		if !ok {
			e.c.Mismatches = append(e.c.Mismatches, Mismatch{
				Backend: "gogen", Detail: "emitted program printed no outcome for this case",
			})
			continue
		}
		e.c.GogenRan = true
		e.c.GogenOutcome = got
		if agreed, detail := agreeFlat(e.c.Ref, got); !agreed {
			e.c.Mismatches = append(e.c.Mismatches, Mismatch{Backend: "gogen", Detail: detail})
		}
	}
}

// emitCase renders one case's compiled plans as Go functions plus the
// driver body that chains them the way core.Program.Run does: inputs
// filled by the shared LCG, each definition's function called in
// schedule order.
func emitCase(c *Case, uniq int) (funcs []string, driver string, err error) {
	prog := c.fullProg
	var b strings.Builder

	// Inputs in sorted-name order, matching FillInputs.
	names := make([]string, 0, len(c.Program.Inputs))
	for n := range c.Program.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		bounds := c.Program.Inputs[n]
		fmt.Fprintf(&b, "\t%s := fill(%d, %d)\n", n, bounds.Size(), inputSeed(c.Seed, i))
		fmt.Fprintf(&b, "\t_ = %s\n", n) // the program may not read every input
	}

	caseID := fmt.Sprintf("c%d", uniq)
	for _, name := range prog.Order {
		cd := prog.Defs[name]
		fnName := fmt.Sprintf("%s_%s", caseID, name)
		src, params, results, err := gogen.EmitFunc(cd.Plan.Program, fnName)
		if err != nil {
			return nil, "", err
		}
		if len(results) != 1 {
			return nil, "", fmt.Errorf("plan for %s has %d results", name, len(results))
		}
		funcs = append(funcs, src)

		errVar := "err" + name
		fmt.Fprintf(&b, "\t%s, %s := %s(%s)\n", name, errVar, fnName, strings.Join(append([]string{"1"}, params...), ", "))
		fmt.Fprintf(&b, "\t_ = %s\n", name)
		fmt.Fprintf(&b, "\tif %s != nil {\n\t\tfmt.Printf(\"case %%d err %%v\\n\", %%CASE%%, %s)\n\t\treturn\n\t}\n", errVar, errVar)
	}
	fmt.Fprintf(&b, "\tfmt.Printf(\"case %%d ok %%d\", %%CASE%%, len(%s))\n", prog.Result)
	fmt.Fprintf(&b, "\tfor _, v := range %s {\n\t\tfmt.Printf(\" %%.17g\", v)\n\t}\n\tfmt.Println()\n", prog.Result)
	return funcs, b.String(), nil
}

// valueFromFlat wraps printed values for comparison; only the flat
// data matters (agreeFlat ignores the placeholder bounds).
func valueFromFlat(vals []float64) *runtime.Strict {
	return &runtime.Strict{B: runtime.NewBounds1(0, int64(len(vals))-1), Data: vals}
}

// agreeFlat compares the reference against a parsed gogen outcome. The
// emitted program prints flat data with no bounds, so only length and
// elements are compared (the compiled plan's bounds equal the
// reference bounds by construction — core validated them).
func agreeFlat(ref, got Outcome) (bool, string) {
	if ref.OK() != got.OK() || ref.Panicked || got.Panicked {
		return false, fmt.Sprintf("reference %s, gogen %s", ref, got)
	}
	if !ref.OK() {
		return true, ""
	}
	a, b := ref.Value.Data, got.Value.Data
	if len(a) != len(b) {
		return false, fmt.Sprintf("length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !floatsAgree(a[i], b[i]) {
			return false, fmt.Sprintf("element %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	return true, ""
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

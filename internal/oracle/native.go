package oracle

import (
	"fmt"

	"arraycomp/internal/core"
	"arraycomp/internal/native"
)

// RunNativeBatch runs every native-eligible case through the native
// execution tier and compares each outcome against the thunked
// reference. Like RunGogenBatch it batches the whole corpus into ONE
// toolchain invocation — every eligible case's loop-IR plans are
// emitted into a single module, built once, and adopted per program
// via the tier hot-swap. Where the gogen leg round-trips results
// through printed text, this leg exercises the real serving path:
// core.Program.Run dispatching to the loaded native plan, bit-exact.
//
// Cases whose full-configuration compile cannot be rendered as a
// native spec (thunked fallbacks, recursive groups, unemittable IR)
// are skipped, not failed. Mismatches are appended with backend
// "native".
func RunNativeBatch(cases []*Case) {
	type entry struct {
		c   *Case
		key string
	}
	var batch []entry
	var specs []native.ProgramSpec
	for i, c := range cases {
		if c.fullProg == nil {
			continue
		}
		// Corpus replays can share a seed, so the key folds in the batch
		// position to stay unique within the module.
		key := fmt.Sprintf("case%d_seed%d", i, c.Seed)
		spec, err := c.fullProg.NativeSpec(key)
		if err != nil {
			continue
		}
		c.NativeEligible = true
		batch = append(batch, entry{c: c, key: key})
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return
	}
	mod, err := native.Build(specs)
	if err != nil {
		// A build failure of the batched module is itself a tiering
		// bug: report it against every eligible case.
		detail := fmt.Sprintf("native build failed: %v", err)
		for _, e := range batch {
			e.c.Mismatches = append(e.c.Mismatches, Mismatch{Backend: "native", Detail: detail})
		}
		return
	}

	for _, e := range batch {
		e.c.fullProg.AdoptNative(mod.Plan(e.key))
		inputs := FillInputs(e.c.Program)
		out := func() (o Outcome) {
			defer func() {
				if r := recover(); r != nil {
					o = Outcome{Err: fmt.Sprintf("panic: %v", r), Panicked: true}
				}
			}()
			res, tier, err := e.c.fullProg.RunTiered(inputs)
			if err != nil {
				return Outcome{Err: err.Error()}
			}
			if tier != core.TierNative {
				return Outcome{Err: fmt.Sprintf("adopted plan not used: served by %q", tier)}
			}
			return Outcome{Value: res}
		}()
		e.c.NativeRan = true
		e.c.NativeOutcome = out
		if agreed, detail := Agree(e.c.Ref, out); !agreed {
			e.c.Mismatches = append(e.c.Mismatches, Mismatch{Backend: "native", Detail: detail})
		}
	}
}

package native

import (
	"errors"
	"fmt"
	"plugin"

	"arraycomp/internal/loopir"
)

// entry is one program's emitted entry point: the worker budget and the
// input arrays by name in, the result array out.
type entry = func(int, map[string][]float64) ([]float64, error)

// entryMap is the exported registry type the emitted source declares.
type entryMap = map[string]entry

// verifyMap is the exported verify-counter registry: per program key,
// a reader of the cumulative (verified, failed) verdict counters.
type verifyMap = map[string]func() (uint64, uint64)

// openPlugin loads a built plugin, points its RunShard and
// RunWavefront runners at loopir's executors, and extracts its Entries
// and VerifyCounts registries. The runners are assigned before any
// entry is returned, so no emitted kernel runs on the sequential
// defaults.
func openPlugin(path string) (entryMap, verifyMap, error) {
	p, err := plugin.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("plugin open: %w", err)
	}
	shard, err1 := lookup[func(int, int64, func(int, int64) int64, func(int, int64, int64))](p, "RunShard")
	wavefront, err2 := lookup[func(int, int64, int64, func(int, int64, int64))](p, "RunWavefront")
	entries, err3 := lookup[entryMap](p, "Entries")
	verifies, err4 := lookup[verifyMap](p, "VerifyCounts")
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return nil, nil, err
	}
	*shard, *wavefront = loopir.Shard, loopir.Wavefront
	return *entries, *verifies, nil
}

// lookup returns a pointer to the plugin variable name of type T.
func lookup[T any](p *plugin.Plugin, name string) (*T, error) {
	sym, err := p.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("plugin lookup: %w", err)
	}
	v, ok := sym.(*T)
	if !ok {
		return nil, fmt.Errorf("plugin %s has type %T, want %T", name, sym, v)
	}
	return v, nil
}

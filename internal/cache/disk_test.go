package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/metrics"
)

func newDiskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c := New(32, 0)
	if err := c.EnableDisk(dir); err != nil {
		t.Fatal(err)
	}
	return c
}

func certOpts() core.Options { return core.Options{Certify: true} }

// The restart-warmth contract: a second process (here, a second Cache
// over the same directory) serves the first process's compiles from
// disk with zero compile-phase time and bitwise-identical results.
func TestDiskRestartWarmth(t *testing.T) {
	dir := t.TempDir()
	params := map[string]int64{"n": 24}

	c1 := newDiskCache(t, dir)
	e1, origin, err := c1.GetOrCompile(wavefrontSrc, params, certOpts())
	if err != nil || origin != OriginCompile {
		t.Fatalf("cold: origin=%v err=%v", origin, err)
	}
	want, err := e1.Program.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats after certified compile: %+v, want 1 disk write", st)
	}

	// "Restart": fresh cache, same directory.
	c2 := newDiskCache(t, dir)
	e2, origin, err := c2.GetOrCompile(wavefrontSrc, params, certOpts())
	if err != nil || origin != OriginDisk {
		t.Fatalf("warm restart: origin=%v err=%v, want disk", origin, err)
	}
	for _, ph := range metrics.CompilePhases {
		if d := e2.Program.Stats.Phases[ph]; d != 0 {
			t.Errorf("disk-restored program charged %v to compile phase %q; must be zero", d, ph)
		}
	}
	if e2.Program.Stats.Phases[metrics.PhaseLoad] <= 0 {
		t.Error("disk-restored program must charge the load phase")
	}
	got, err := e2.Program.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d differs bitwise after disk restore", i)
		}
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("stats after restore: %+v, want 1 disk hit on 1 miss", st)
	}
	// Third fetch in the same process: memory, not disk.
	if _, origin, _ := c2.GetOrCompile(wavefrontSrc, params, certOpts()); origin != OriginMemory {
		t.Fatalf("second fetch origin=%v, want memory", origin)
	}
}

// diskFile returns the path of the single persisted entry.
func diskFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+diskExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one disk entry, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestDiskCorruptEntryDiscardedAndRecompiled(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped payload byte": func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[diskHeaderLen+len(out)/2] ^= 0x40
			return out
		},
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"bad magic": func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			copy(out, "NOTADISK")
			return out
		},
		"future version": func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(out[8:12], 99)
			return out
		},
		"previous version": func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(out[8:12], diskVersion-1)
			return out
		},
		"empty file": func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			params := map[string]int64{"n": 16}
			c1 := newDiskCache(t, dir)
			if _, _, err := c1.GetOrCompile(wavefrontSrc, params, certOpts()); err != nil {
				t.Fatal(err)
			}
			path := diskFile(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c2 := newDiskCache(t, dir)
			var warned []string
			c2.Warnf = func(format string, args ...any) {
				warned = append(warned, fmt.Sprintf(format, args...))
			}
			e, origin, err := c2.GetOrCompile(wavefrontSrc, params, certOpts())
			if err != nil || origin != OriginCompile {
				t.Fatalf("origin=%v err=%v, want clean recompile after corruption", origin, err)
			}
			// The warning must carry the content hash (not just the
			// replica-local path) so operators can correlate the same
			// corrupt plan across replicas.
			key := Key(wavefrontSrc, params, certOpts())
			if len(warned) != 1 || !strings.Contains(warned[0], key) || !strings.Contains(warned[0], path) {
				t.Fatalf("discard warning %q must name content hash %s and path %s", warned, key, path)
			}
			if _, err := e.Program.Run(nil); err != nil {
				t.Fatal(err)
			}
			st := c2.Stats()
			if st.DiskDiscards != 1 {
				t.Fatalf("stats = %+v, want exactly 1 disk discard", st)
			}
			// The recompile re-persisted a valid entry; the next restart
			// is warm again.
			if st.DiskWrites != 1 {
				t.Fatalf("stats = %+v, want the recompile persisted", st)
			}
			c3 := newDiskCache(t, dir)
			if _, origin, err := c3.GetOrCompile(wavefrontSrc, params, certOpts()); err != nil || origin != OriginDisk {
				t.Fatalf("post-repair restart: origin=%v err=%v, want disk", origin, err)
			}
		})
	}
}

// A forged entry whose certification evidence was edited — claims
// count inflated, checksum left stale — must be rejected on load and
// recompiled, never trusted. (The checksum is what binds the certify
// evidence to the plan; see the disk.go format comment for the threat
// model.)
func TestDiskForgedCertifyEvidenceRejected(t *testing.T) {
	dir := t.TempDir()
	params := map[string]int64{"n": 16}
	c1 := newDiskCache(t, dir)
	if _, _, err := c1.GetOrCompile(wavefrontSrc, params, certOpts()); err != nil {
		t.Fatal(err)
	}
	path := diskFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Forge: decode the payload, flip the certification evidence, and
	// splice the re-encoded payload under the ORIGINAL checksum.
	pl, err := decodePayload(raw[diskHeaderLen : len(raw)-sha256.Size])
	if err != nil {
		t.Fatal(err)
	}
	if pl.Snap.CertifiedClaims == 0 {
		t.Fatal("precondition: persisted entry carries certified claims")
	}
	pl.Snap.CertifiedClaims += 1000
	var forged bytes.Buffer
	forged.WriteString(diskMagic)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], diskVersion)
	newPayload, err := pl.encode()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(newPayload)))
	forged.Write(hdr[:])
	forged.Write(newPayload)
	forged.Write(raw[len(raw)-sha256.Size:]) // stale checksum from the honest entry
	if err := os.WriteFile(path, forged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newDiskCache(t, dir)
	_, origin, err := c2.GetOrCompile(wavefrontSrc, params, certOpts())
	if err != nil || origin != OriginCompile {
		t.Fatalf("origin=%v err=%v, want the forged entry rejected and recompiled", origin, err)
	}
	if st := c2.Stats(); st.DiskDiscards != 1 {
		t.Fatalf("stats = %+v, want the forged entry discarded", st)
	}
}

// Uncertified compiles must never persist: there is no proof to carry
// across the process boundary.
func TestDiskUncertifiedNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	params := map[string]int64{"n": 16}
	c1 := newDiskCache(t, dir)
	if _, _, err := c1.GetOrCompile(wavefrontSrc, params, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskWrites != 0 {
		t.Fatalf("stats = %+v, uncertified compile must not persist", st)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*"+diskExt)); len(m) != 0 {
		t.Fatalf("disk entries written for uncertified compile: %v", m)
	}
	// And a restart recompiles.
	c2 := newDiskCache(t, dir)
	if _, origin, err := c2.GetOrCompile(wavefrontSrc, params, core.Options{}); err != nil || origin != OriginCompile {
		t.Fatalf("origin=%v err=%v, want recompile (nothing persisted)", origin, err)
	}
}

// Thunked programs evaluate through the suspension machinery, which
// is not serializable state — certified or not, they stay memory-only.
func TestDiskThunkedNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	src := `a = array (1,n) [ i := a!i + 1.0 | i <- [1..n] ]` // self-dependent: thunked fallback
	c := newDiskCache(t, dir)
	if _, _, err := c.GetOrCompile(src, map[string]int64{"n": 4}, certOpts()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskWrites != 0 {
		t.Fatalf("stats = %+v, thunked program must not persist", st)
	}
}

// The satellite contract: 100 concurrent identical failing compiles
// invoke the compiler exactly once (singleflight), every caller sees
// the error, and the failure is cached nowhere — not in memory, not
// on disk. Run under -race in CI.
func TestSingleflightErrorPathNeverCached(t *testing.T) {
	dir := t.TempDir()
	c := newDiskCache(t, dir)
	bad := `a = array (1,n) [ i := z!i | i <- [1..n] ]` // z undeclared
	params := map[string]int64{"n": 8}

	// The compile hook (the flight holder) holds the flight open until
	// every other caller is provably parked on it — SingleflightWaits
	// counts exactly that — then fails. This makes "compiler invoked
	// once" deterministic: while the flight is in the inflight table no
	// other caller can start one, and all n-1 are waiting on it.
	const n = 100
	var compiles atomic.Int64
	wantErr := fmt.Errorf("synthetic compile failure")
	c.compile = func(string, map[string]int64, core.Options) (*core.Program, error) {
		compiles.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().SingleflightWaits < n-1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("timed out waiting for %d waiters", n-1)
			}
			time.Sleep(time.Millisecond)
		}
		return nil, wantErr
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompile(bad, params, certOpts())
		}(i)
	}
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Fatalf("compiler invoked %d times for %d concurrent identical requests, want exactly 1", got, n)
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d saw no error", i)
		}
		if err != wantErr {
			t.Fatalf("caller %d saw %v, want the one shared compile error", i, err)
		}
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("stats = %+v, failed compile cached in memory", st)
	}
	if st.SingleflightWaits != n-1 {
		t.Fatalf("stats = %+v, want %d singleflight waits", st, n-1)
	}
	if st.DiskWrites != 0 {
		t.Fatalf("stats = %+v, failed compile persisted", st)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*")); len(m) != 0 {
		t.Fatalf("failed compile left disk entries: %v", m)
	}
	// Errors are not cached: the next caller compiles again.
	if _, _, err := c.GetOrCompile(bad, params, certOpts()); err == nil {
		t.Fatal("retry after failure: want the error again")
	}
	if got := compiles.Load(); got != 2 {
		t.Fatalf("retry did not re-invoke the compiler (invocations = %d)", got)
	}
}

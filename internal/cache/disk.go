package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"arraycomp/internal/core"
	"arraycomp/internal/wire"
)

// The persistent tier under the memory LRU: compiled programs whose
// plans are pure data (certified, fully thunkless — see core.Snapshot)
// are written to disk keyed by the same content address as the memory
// cache, so a restarted haccd serves its working set warm, paying only
// deserialization plus closure rebuilding instead of any compile
// phase.
//
// Entry format (all integers little-endian):
//
//	magic   8 bytes  "HACDISK1"
//	version 4 bytes  format version (entries with any other version
//	                 are discarded and recompiled, never migrated)
//	length  8 bytes  payload byte count
//	payload          key, then the snapshot (core.Snapshot.MarshalBinary),
//	                 each as a length-prefixed byte string (internal/wire)
//	sum    32 bytes  SHA-256 over magic+version+length+payload
//
// The checksum makes the whole entry — including the certification
// claim counts inside the snapshot — tamper-evident: flipping the
// certify evidence (or any other byte) breaks the sum and the entry is
// deleted and recompiled. The key rides inside the checksummed payload
// and must match the filename's key, so a valid entry renamed over
// another key is rejected too. This is corruption *detection*, not
// cryptographic authentication: anyone who can write the cache
// directory can forge a checksum, so the directory must be trusted to
// the same degree as the binary.

// diskVersion 2: plans are sized for the compile's worker target, not
// the compiling host's GOMAXPROCS, so version-1 entries (which could
// carry another host's tile shapes) are recompiled. Version 3: the tile
// and mono-shard schedule kinds are gone (a 2-D shard and an aligned
// shard replace them), so version-2 entries that carry them are
// recompiled. Version 4: a bigupd of a caller's input compiles to a
// copy-update plan and no plan clones its source any more, so a
// version-3 entry (an in-place plan that relied on that clone) would
// update the caller's array; it is recompiled. Version 5: a plan's loop
// IR rides in its own compact encoding (loopir.Program.MarshalBinary)
// instead of a gob-encoded node tree, so version-4 entries are
// recompiled. Version 6: a loop's stencil record keeps only guard
// splitting's boundary flag and replay records (the footprint fields
// are gone from the loop encoding), so version-5 entries are
// recompiled.
const (
	diskMagic   = "HACDISK1"
	diskVersion = uint32(6)
	diskExt     = ".hacplan"
)

// diskHeaderLen is magic + version + payload length.
const diskHeaderLen = 8 + 4 + 8

type diskPayload struct {
	// Key is the content address the entry was written under;
	// re-checked against the filename on load.
	Key  string
	Snap *core.Snapshot
}

func (pl *diskPayload) encode() ([]byte, error) {
	snap, err := pl.Snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	e := &wire.Encoder{}
	e.Str(pl.Key)
	e.Bytes(snap)
	return e.Buf, nil
}

func decodePayload(b []byte) (diskPayload, error) {
	d := wire.NewDecoder(b)
	key, snap := d.Str(), d.Bytes()
	if err := d.Err(); err != nil {
		return diskPayload{}, err
	}
	pl := diskPayload{Key: key, Snap: &core.Snapshot{}}
	if err := pl.Snap.UnmarshalBinary(snap); err != nil {
		return diskPayload{}, err
	}
	return pl, nil
}

type diskTier struct {
	dir string
}

func newDiskTier(dir string) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	return &diskTier{dir: dir}, nil
}

func (d *diskTier) path(key string) string {
	return filepath.Join(d.dir, key+diskExt)
}

// write persists one snapshot, atomically (temp file + rename), so a
// concurrent reader or a crash mid-write never observes a torn entry.
func (d *diskTier) write(key string, snap *core.Snapshot) error {
	payload, err := (&diskPayload{Key: key, Snap: snap}).encode()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(diskMagic)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], diskVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])

	tmp, err := os.CreateTemp(d.dir, "."+key+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), d.path(key))
}

// load reads, validates, and restores the entry for key. Returns
// (nil, false, nil) on a clean miss (no file). Any validation failure
// deletes the file and returns discarded=true with the reason — the
// caller falls through to the compiler either way.
func (d *diskTier) load(key string, opts core.Options) (prog *core.Program, discarded bool, err error) {
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	prog, err = d.validate(key, raw, opts)
	if err != nil {
		os.Remove(d.path(key))
		return nil, true, err
	}
	return prog, false, nil
}

// validate checks structure, version, checksum, and key binding, then
// rebuilds the program (which re-checks the certify gate and that the
// IR still compiles).
func (d *diskTier) validate(key string, raw []byte, opts core.Options) (*core.Program, error) {
	if len(raw) < diskHeaderLen+sha256.Size {
		return nil, fmt.Errorf("cache: disk entry %s truncated (%d bytes)", key, len(raw))
	}
	if string(raw[:8]) != diskMagic {
		return nil, fmt.Errorf("cache: disk entry %s has bad magic", key)
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != diskVersion {
		return nil, fmt.Errorf("cache: disk entry %s has version %d, want %d", key, v, diskVersion)
	}
	plen := binary.LittleEndian.Uint64(raw[12:20])
	if plen != uint64(len(raw)-diskHeaderLen-sha256.Size) {
		return nil, fmt.Errorf("cache: disk entry %s length mismatch", key)
	}
	body := raw[:diskHeaderLen+int(plen)]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], raw[len(body):]) {
		return nil, fmt.Errorf("cache: disk entry %s checksum mismatch", key)
	}
	pl, err := decodePayload(raw[diskHeaderLen:len(body)])
	if err != nil {
		return nil, fmt.Errorf("cache: disk entry %s: %w", key, err)
	}
	if pl.Key != key {
		return nil, fmt.Errorf("cache: disk entry %s written for key %s", key, pl.Key)
	}
	return core.RestoreSnapshot(pl.Snap, opts)
}

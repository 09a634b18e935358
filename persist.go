package stardust

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"stardust/internal/core"
	"stardust/internal/obs"
	"stardust/internal/resilience"
)

// Snapshot container format. Version 2 (written) frames the payload with a
// CRC32 checksum and an explicit length so corruption — truncation from a
// crash mid-write, bit flips at rest — fails Load with a clean error
// instead of a garbled monitor or a decoder panic:
//
//	[4]  magic "SDS2"
//	[4]  CRC32 (IEEE) of the payload
//	[8]  payload length (little-endian uint64)
//	[N]  payload: int32 mode + gob-encoded core summary
//
// Version 1 ("SDS1": int32 mode + gob payload, unframed) is still loaded
// for snapshots written by earlier releases.
var (
	snapshotMagic   = [4]byte{'S', 'D', 'S', '2'}
	snapshotMagicV1 = [4]byte{'S', 'D', 'S', '1'}
)

// ErrSnapshotCorrupt marks a snapshot that failed checksum or framing
// validation. Match with errors.Is; file loads fall back to the .bak copy
// on this error.
var ErrSnapshotCorrupt = errors.New("snapshot corrupt")

// Snapshot serializes the monitor's full state — configuration, raw
// histories and every level's feature boxes — so a monitoring process can
// restart without losing its summaries. The per-level indexes are rebuilt
// on load. The payload is framed with a CRC32 checksum (format SDS2).
func (m *Monitor) Snapshot(w io.Writer) error {
	var payload bytes.Buffer
	if err := binary.Write(&payload, binary.LittleEndian, int32(m.mode)); err != nil {
		return fmt.Errorf("stardust: encoding snapshot: %v", err)
	}
	if err := m.sum.Snapshot(&payload); err != nil {
		return err
	}
	var header [16]byte
	copy(header[:4], snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	binary.LittleEndian.PutUint64(header[8:16], uint64(payload.Len()))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("stardust: writing snapshot header: %v", err)
	}
	if _, err := payload.WriteTo(w); err != nil {
		return fmt.Errorf("stardust: writing snapshot payload: %v", err)
	}
	return nil
}

// Load reconstructs a monitor from a Snapshot stream (SDS2, or legacy
// SDS1). Corrupt SDS2 payloads fail with ErrSnapshotCorrupt.
//
// Restored monitors start with the default (Reject) ingestion guard; use
// SetBadValuePolicy to re-apply a deployment's policy.
func Load(r io.Reader) (*Monitor, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("stardust: reading snapshot header: %v", err)
	}
	switch magic {
	case snapshotMagic:
		return loadV2(r)
	case snapshotMagicV1:
		return loadPayload(r)
	default:
		return nil, fmt.Errorf("stardust: not a monitor snapshot (bad magic %q)", magic[:])
	}
}

// loadV2 reads the CRC-framed container and hands the verified payload to
// the common decoder.
func loadV2(r io.Reader) (*Monitor, error) {
	var frame [12]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("stardust: %w: incomplete frame header: %v", ErrSnapshotCorrupt, err)
	}
	sum := binary.LittleEndian.Uint32(frame[:4])
	length := binary.LittleEndian.Uint64(frame[4:12])
	// Read at most the declared length; a truncated stream yields fewer
	// bytes and fails the length check below rather than hanging or
	// over-reading.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("stardust: %w: reading payload: %v", ErrSnapshotCorrupt, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("stardust: %w: truncated payload (%d of %d bytes)",
			ErrSnapshotCorrupt, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("stardust: %w: checksum mismatch (%08x != %08x)",
			ErrSnapshotCorrupt, got, sum)
	}
	return loadPayload(bytes.NewReader(payload))
}

// loadPayload decodes the mode + core summary shared by both formats.
func loadPayload(r io.Reader) (*Monitor, error) {
	var mode int32
	if err := binary.Read(r, binary.LittleEndian, &mode); err != nil {
		return nil, fmt.Errorf("stardust: reading snapshot header: %v", err)
	}
	if Mode(mode) != Online && Mode(mode) != Batch && Mode(mode) != SWAT {
		return nil, fmt.Errorf("stardust: snapshot has unknown mode %d", mode)
	}
	sum, err := core.LoadSummary(r)
	if err != nil {
		return nil, fmt.Errorf("stardust: %v", err)
	}
	// Metrics are runtime observability, not state: restored monitors start
	// from zeroed counters. Parallelism is likewise a runtime property —
	// restored monitors get the default worker count for this host.
	metrics := obs.NewMetrics()
	sum.SetMetrics(metrics)
	sum.SetParallel(defaultWorkers(0))
	return &Monitor{
		sum:     sum,
		mode:    Mode(mode),
		guard:   resilience.NewGuard(resilience.Config{}, sum.NumStreams()),
		metrics: metrics,
	}, nil
}

// Snapshotter is anything that can serialize monitor state — Monitor,
// SafeWatcher and ShardedMonitor all qualify.
type Snapshotter interface {
	Snapshot(w io.Writer) error
}

// Checkpointer is the durable-snapshot surface: Checkpoint persists state
// to path crash-safely AND trims write-ahead-log segments the snapshot
// fully covers. Monitor, SafeWatcher and ShardedMonitor all implement it
// (trimming is a no-op without durability); the HTTP server's snapshot
// paths prefer it over plain WriteSnapshotFile so auto-snapshots bound
// WAL growth.
type Checkpointer interface {
	Checkpoint(path string) error
}

// Compile-time checks: every monitor flavor checkpoints.
var (
	_ Checkpointer = (*Monitor)(nil)
	_ Checkpointer = (*ShardedMonitor)(nil)
	_ Checkpointer = (*SafeWatcher)(nil)
)

// WriteSnapshotFile persists a snapshot to path crash-safely: the bytes go
// to a temporary file that is fsynced before an atomic rename, and the
// previous snapshot (when present) is preserved as path+".bak". A crash at
// any point leaves a loadable state file: either the old snapshot, the
// new one, or (between the two renames) the backup that LoadFile falls
// back to.
func WriteSnapshotFile(s Snapshotter, path string) error {
	tmp := path + ".tmp"
	f, err := createSnapshotFile(tmp)
	if err != nil {
		return fmt.Errorf("stardust: creating snapshot temp file: %v", err)
	}
	err = s.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stardust: writing snapshot %s: %v", tmp, err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		if err := os.Rename(path, path+".bak"); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("stardust: rotating snapshot backup: %v", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("stardust: committing snapshot: %v", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// snapshotFile is the slice of *os.File WriteSnapshotFile needs — the
// seam fault-injection tests substitute to simulate a full or failing
// disk mid-snapshot.
type snapshotFile interface {
	io.Writer
	Sync() error
	Close() error
}

// createSnapshotFile opens the snapshot temp file. A package variable so
// tests can inject write and fsync failures; the production value is
// os.Create.
var createSnapshotFile = func(path string) (snapshotFile, error) {
	return os.Create(path)
}

// syncDir fsyncs a directory so the renames above are durable. Best
// effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// LoadFile restores a monitor from a snapshot file written by
// WriteSnapshotFile, falling back to path+".bak" when the primary file is
// corrupt, unreadable, or missing (a crash between WriteSnapshotFile's two
// renames leaves only the backup). When neither file exists the returned
// error matches fs.ErrNotExist, so callers can distinguish "no state yet"
// from real failures.
func LoadFile(path string) (*Monitor, error) {
	m, err := loadSnapshotPath(path)
	if err == nil {
		return m, nil
	}
	if bm, berr := loadSnapshotPath(path + ".bak"); berr == nil {
		return bm, nil
	} else if errors.Is(err, fs.ErrNotExist) && !errors.Is(berr, fs.ErrNotExist) {
		// The primary is simply absent but a backup exists and is bad:
		// report the backup's failure, it is the actionable one.
		return nil, berr
	}
	return nil, err
}

func loadSnapshotPath(path string) (*Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return m, nil
}

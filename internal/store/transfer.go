// Replica transfer: the store-side endpoints the cluster layer uses to
// ship a whole segment store (or just its WAL tail) to a rejoining
// replica. The source exposes a consistent view of its on-disk files;
// the receiver stages them through an Install, which commits the
// MANIFEST last — so an aborted or crashed transfer leaves a directory
// with no MANIFEST, which Open rejects cleanly and the caller retries
// or rebuilds, never a store stitched from two checkpoints.

package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// TransferState names the files a full store transfer must copy: the
// live snapshot, its paired WAL, and its index side file. Manifest is
// the MANIFEST payload committing that set; the receiver writes it only
// after every named file has landed.
//
// The view is consistent at the moment of the call. A checkpoint racing
// the transfer swings the manifest and unlinks the old files, so a
// reader streaming them fails mid-copy — the transfer then restarts
// against the new state rather than mixing generations.
type TransferState struct {
	Manifest []byte
	Files    []string
}

// TransferState returns the store's current transferable file set.
func (s *Store) TransferState() (*TransferState, error) {
	s.mu.Lock()
	seq := s.seq
	s.mu.Unlock()
	if seq == 0 {
		return nil, fmt.Errorf("store: no snapshot yet, nothing to transfer")
	}
	snapName := fmt.Sprintf("snap-%06d.pissnap", seq)
	walName := fmt.Sprintf("wal-%06d", seq)
	return &TransferState{
		Manifest: fmt.Appendf(nil, "%s\nsnapshot %s\nwal %s\n", manifestMagic, snapName, walName),
		Files:    []string{snapName, walName, idxFileName(seq)},
	}, nil
}

// WALRecords decodes the records currently in the active log, in append
// order. Record i (0-based) is the snapshot's MutSeq+i+1-th mutation
// ever applied to the segment, which is the contract WAL shipping
// relies on to resume a lagging replica from its own sequence number.
// An append racing the scan either lands entirely (and is returned) or
// ends the scan at the previous record boundary; both are valid
// prefixes of the log.
func (s *Store) WALRecords() ([]Record, error) {
	s.mu.Lock()
	seq := s.seq
	s.mu.Unlock()
	if seq == 0 {
		return nil, fmt.Errorf("store: no active WAL yet")
	}
	infos, _, err := scanWAL(s.fsOrOS(), filepath.Join(s.dir, fmt.Sprintf("wal-%06d", seq)))
	if err != nil {
		return nil, fmt.Errorf("store: scanning wal for shipping: %w", err)
	}
	recs := make([]Record, len(infos))
	for i, ri := range infos {
		recs[i] = ri.Record
	}
	return recs, nil
}

// An Install stages a transferred store into dir: data files first via
// CreateFile, then Commit writes the MANIFEST last. Before Commit the
// directory holds no MANIFEST, so Exists reports false and Open fails —
// a half-finished transfer is indistinguishable from no store at all.
type Install struct {
	dir string
	fs  FS
}

// NewInstall prepares dir (created if missing) to receive a transfer.
// Leftover files from a previous aborted transfer are overwritten as the
// new files stream in; an existing committed store is refused, the
// caller must remove it first.
func NewInstall(dir string, fs FS) (*Install, error) {
	if fs == nil {
		fs = OSFS
	}
	if existsFS(fs, dir) {
		return nil, fmt.Errorf("store: %s already holds a committed segment store", dir)
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Install{dir: dir, fs: fs}, nil
}

// CreateFile opens one incoming data file for writing. The name must be
// a plain file name from the source's TransferState — path separators,
// "..", and the MANIFEST itself are rejected, so a malicious or corrupt
// source cannot write outside the store directory or commit early.
// Close the returned file (after a Sync) before Commit.
func (in *Install) CreateFile(name string) (File, error) {
	if err := checkTransferName(name); err != nil {
		return nil, err
	}
	return in.fs.OpenFile(filepath.Join(in.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Commit validates the manifest and installs it atomically, making the
// staged files the store's durable state. The named snapshot and WAL
// must have been staged; committing a manifest whose files are missing
// would create a store that can never open.
func (in *Install) Commit(manifest []byte) error {
	snapName, walName, err := ParseManifest(manifest)
	if err != nil {
		return fmt.Errorf("store: transferred manifest: %w", err)
	}
	for _, name := range []string{snapName, walName} {
		if _, err := in.fs.Stat(filepath.Join(in.dir, name)); err != nil {
			return fmt.Errorf("store: manifest names unstaged file %s: %w", name, err)
		}
	}
	if err := writeFileAtomic(in.fs, in.dir, manifestName, func(w io.Writer) error {
		_, err := w.Write(manifest)
		return err
	}); err != nil {
		return fmt.Errorf("store: committing transferred manifest: %w", err)
	}
	return nil
}

// checkTransferName rejects file names that could escape the store
// directory or clobber its commit record.
func checkTransferName(name string) error {
	if name == "" || name == manifestName || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("store: invalid transfer file name %q", name)
	}
	return nil
}

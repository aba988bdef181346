package rebuild

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/flix"
)

// snapshotPattern matches generation snapshot files in SnapshotDir.
const snapshotPattern = "gen-*.flix"

// SnapshotName returns the file name a generation is persisted under.
func SnapshotName(gen uint64) string { return fmt.Sprintf("gen-%06d.flix", gen) }

// persist writes the freshly installed generation as a v2 snapshot and
// prunes old generations beyond cfg.Retain.  The write goes through a temp
// file that is synced before it is renamed into place, and the directory is
// synced after, so neither a crash nor a power loss mid-write leaves a half
// snapshot under a valid name.
func (m *Manager) persist(ix *flix.Index, gen uint64) error {
	if err := os.MkdirAll(m.cfg.SnapshotDir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(m.cfg.SnapshotDir, SnapshotName(gen))
	tmp, err := os.CreateTemp(m.cfg.SnapshotDir, "gen-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after the rename
	_, err = ix.WriteSnapshotV2With(tmp, flix.SnapshotV2Options{Compress: m.cfg.SnapshotCompress})
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	if err := syncDir(m.cfg.SnapshotDir); err != nil {
		return err
	}
	return m.prune()
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// prune removes generation snapshots beyond the newest cfg.Retain.  File
// names embed zero-padded generation numbers, so lexical order is
// generation order.
func (m *Manager) prune() error {
	matches, err := filepath.Glob(filepath.Join(m.cfg.SnapshotDir, snapshotPattern))
	if err != nil {
		return err
	}
	if len(matches) <= m.cfg.Retain {
		return nil
	}
	sort.Strings(matches)
	var firstErr error
	for _, path := range matches[:len(matches)-m.cfg.Retain] {
		if err := os.Remove(path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LatestSnapshot returns the path of the newest generation snapshot in dir,
// or "" when none exists — flixd's warm-start probe.
func LatestSnapshot(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, snapshotPattern))
	if err != nil || len(matches) == 0 {
		return "", err
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

package snap

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"sde/internal/expr"
)

// CheckpointFile is the snapshot file name within a checkpoint directory.
const CheckpointFile = "checkpoint.sde"

// JournalFile is the append-only progress journal next to the snapshot:
// one line per checkpoint, human-readable, for post-crash forensics.
const JournalFile = "journal.log"

// ErrNoCheckpoint is returned by LoadBytes/Load when the directory holds
// no checkpoint (distinguishing "never checkpointed" from real IO errors,
// so resume-or-start logic can fall back to a fresh run).
var ErrNoCheckpoint = errors.New("snap: no checkpoint found")

// Save writes an encoded snapshot durably into dir: write to a temp file,
// fsync, close, then rename over CheckpointFile — so a crash at any point
// leaves either the previous checkpoint or the new one, never a torn file.
// Every writer error return is checked; a checkpoint that silently dropped
// bytes is worse than none. The caller records the checkpoint with
// AppendJournal once it knows what it cost.
func Save(dir string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, CheckpointFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, CheckpointFile))
}

// AppendJournal adds the line for a saved checkpoint to dir's journal:
// where the run stood, how many bytes were written and what the
// checkpoint cost from snapshot to durable file.
func AppendJournal(dir string, s *Snapshot, size int, cost time.Duration) error {
	f, err := os.OpenFile(filepath.Join(dir, JournalFile),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := fmt.Fprintf(f, "%s algo=%s events=%d clock=%d states=%d bytes=%d cost=%s\n",
		time.Now().UTC().Format(time.RFC3339),
		s.Algorithm, s.Events, s.Clock, len(s.States), size, cost)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// LoadBytes reads the raw checkpoint from dir, or ErrNoCheckpoint when
// none has been written there.
func LoadBytes(dir string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Load reads and decodes the checkpoint in dir.
func Load(dir string, b *expr.Builder) (*Snapshot, error) {
	data, err := LoadBytes(dir)
	if err != nil {
		return nil, err
	}
	return Decode(data, b)
}

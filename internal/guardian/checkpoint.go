package guardian

import (
	"errors"
	"fmt"

	"hauberk/internal/gpu"
)

// Checkpoint captures device memory before a kernel launch so a failed
// execution can be retried without repeating earlier work — the optional
// CheCUDA-style checkpoint library of Section VI(i).
type Checkpoint struct {
	dev  *gpu.Device
	snap gpu.Snapshot
}

// Capture snapshots the device's memory.
func Capture(dev *gpu.Device) *Checkpoint {
	return &Checkpoint{dev: dev, snap: dev.Snapshot()}
}

// Restore reinstates the snapshot on the same device. A corrupt
// checkpoint — one whose word count no longer matches the device's arena,
// e.g. a truncated snapshot or a device re-provisioned since Capture — is
// an error rather than a partial restore: resuming a kernel on half-old
// memory would be exactly the silent corruption the guardian exists to
// prevent.
func (c *Checkpoint) Restore() error {
	if c == nil || c.dev == nil {
		return errors.New("guardian: restore on empty checkpoint")
	}
	if got, want := len(c.snap.Words), c.dev.ArenaWords(); got != want {
		return fmt.Errorf("guardian: corrupt checkpoint: %d words, device arena has %d", got, want)
	}
	c.dev.Restore(c.snap)
	return nil
}

// Words reports the checkpoint size in 32-bit words.
func (c *Checkpoint) Words() int { return len(c.snap.Words) }

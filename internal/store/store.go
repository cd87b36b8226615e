// Package store is the storage-backend seam under the container read and
// write paths: everything that used to assume containers are local files
// opened via os.Open — the random-access reader, the mrserve serving tier,
// ingest's atomic install, mrcompress — goes through the Store interface
// instead, so the same serving stack runs unchanged over a local directory,
// an in-memory object set (tests, mem:// URLs), or a remote HTTP
// origin fetched with range requests.
//
// A Store names objects by flat keys ("nyx.mrw"): no path separators, no
// traversal. Open returns a random-access Handle (io.ReaderAt + size) plus
// the object's identity at open time; Stat revalidates that identity so a
// serving tier can detect replacement without reopening; Install writes an
// object atomically (every observer sees the old or the new object, never a
// partial one); List enumerates keys.
//
// Backends classify their failures through internal/faultio — timeouts and
// 5xx as Transient, missing objects as Permanent wrapping fs.ErrNotExist —
// so the reader's retry/backoff layer and the serving tier's error mapping
// apply identically over every backend.
package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Info identifies one version of an object: the tuple a serving tier
// compares to decide whether a cached handle still matches the stored
// object. Local backends fill Size and ModTime (the fstat identity) and the
// filesystem one keeps the stat result itself, so the file's device and
// inode count too; remote backends additionally carry the origin's ETag
// when it offers one.
type Info struct {
	// Size is the object's length in bytes.
	Size int64
	// ModTime is the object's last-modified time (zero when the backend has
	// none).
	ModTime time.Time
	// ETag is the backend's strong validator for this version ("" when the
	// backend has none). When both sides of a comparison carry one, it wins
	// over the size+mtime identity.
	ETag string
	// file is the stat result the filesystem backend built this Info from
	// (nil on every other backend).
	file os.FileInfo
}

// Same reports whether two Infos identify the same object version: by ETag
// when both carry one, by size+mtime otherwise — and, when both came from the
// filesystem backend, only if they are also the same file. An atomic install
// renames a new inode into place, and an open handle pins the inode it reads
// so the number cannot be reused while that handle's Info is being compared,
// which catches the same-size swap inside one mtime tick that size+mtime
// alone cannot see.
func (a Info) Same(b Info) bool {
	if a.ETag != "" && b.ETag != "" {
		return a.ETag == b.ETag && a.Size == b.Size
	}
	if a.file != nil && b.file != nil && !os.SameFile(a.file, b.file) {
		return false
	}
	return a.Size == b.Size && a.ModTime.Equal(b.ModTime)
}

// Handle is an open object: positioned reads over a fixed-size snapshot.
// Implementations are safe for concurrent ReadAt, like os.File.
type Handle interface {
	io.ReaderAt
	io.Closer
	// Size is the object's total length in bytes.
	Size() int64
	// Info is the object's identity observed at open time (the baseline a
	// later Stat is compared against to detect replacement).
	Info() Info
}

// Store is a storage backend holding flat-keyed objects.
type Store interface {
	// Open returns a random-access handle on the object named key, or an
	// error wrapping fs.ErrNotExist when there is no such object.
	Open(ctx context.Context, key string) (Handle, error)
	// Stat returns the object's current identity without opening it — the
	// revalidation probe a serving tier issues per lookup.
	Stat(ctx context.Context, key string) (Info, error)
	// Install atomically writes the object named key from fn's output: a
	// concurrent Open observes either the previous version or the complete
	// new one. Read-only backends return ErrUnsupported.
	Install(ctx context.Context, key string, fn func(io.Writer) error) error
	// List returns the keys present, sorted.
	List(ctx context.Context) ([]string, error)
	// String describes the store (its URL) for logs.
	String() string
}

// Sweeper is implemented by stores that can accumulate crash residue from
// interrupted installs (the filesystem backend); SweepTemps removes
// leftovers older than maxAge and reports how many.
type Sweeper interface {
	SweepTemps(maxAge time.Duration) (int, error)
}

// ErrUnsupported reports an operation the backend cannot perform (e.g.
// Install on a read-only HTTP origin).
var ErrUnsupported = errors.New("store: operation not supported by this backend")

// ValidKey reports whether key is a flat object name: non-empty, no path
// separators, no traversal. Every backend rejects invalid keys before they
// touch storage.
func ValidKey(key string) bool {
	return key != "" && !strings.ContainsAny(key, `/\`) && !strings.Contains(key, "..")
}

func checkKey(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid object key %q", key)
	}
	return nil
}

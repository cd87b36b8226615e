package store

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/writer"
)

// FS is the local-filesystem backend: objects are files in one directory,
// opened with os.Open, revalidated by fstat identity (inode, size, mtime), and
// installed through writer.AtomicFile (temp + fsync + rename). This is the
// storage logic the serving tier and reader used inline before the seam
// existed, extracted behind the interface.
type FS struct {
	dir string
}

// NewFS returns a filesystem store rooted at dir, which must exist and be a
// directory.
func NewFS(dir string) (*FS, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return nil, &os.PathError{Op: "store", Path: dir, Err: os.ErrInvalid}
	}
	return &FS{dir: dir}, nil
}

// Dir returns the backing directory.
func (s *FS) Dir() string { return s.dir }

func (s *FS) String() string { return "file://" + s.dir }

func fsInfo(st os.FileInfo) Info {
	return Info{Size: st.Size(), ModTime: st.ModTime(), file: st}
}

// fsHandle is an open file plus the identity fstat'ed at open time.
type fsHandle struct {
	f    *os.File
	info Info
}

func (h *fsHandle) ReadAt(p []byte, off int64) (int, error) { return h.f.ReadAt(p, off) }
func (h *fsHandle) Close() error                            { return h.f.Close() }
func (h *fsHandle) Size() int64                             { return h.info.Size }
func (h *fsHandle) Info() Info                              { return h.info }

func (s *FS) Open(_ context.Context, key string) (Handle, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(s.dir, key))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	// The identity comes from fstat of the opened file descriptor — the
	// inode this handle actually reads — not from the path, so a replace
	// racing the open can never attach the new file's identity to the old
	// file's bytes.
	return &fsHandle{f: f, info: fsInfo(st)}, nil
}

func (s *FS) Stat(_ context.Context, key string) (Info, error) {
	if err := checkKey(key); err != nil {
		return Info{}, err
	}
	st, err := os.Stat(filepath.Join(s.dir, key))
	if err != nil {
		return Info{}, err
	}
	return fsInfo(st), nil
}

func (s *FS) Install(_ context.Context, key string, fn func(io.Writer) error) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return writer.AtomicFile(filepath.Join(s.dir, key), 0o644, fn)
}

func (s *FS) List(_ context.Context) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		// Skip directories, AtomicFile temporaries, and other dotfiles.
		if !e.Type().IsRegular() || name == "" || name[0] == '.' {
			continue
		}
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys, nil
}

// SweepTemps removes stale AtomicFile temporaries (crash residue from an
// interrupted Install) older than maxAge.
func (s *FS) SweepTemps(maxAge time.Duration) (int, error) {
	return writer.SweepTemps(s.dir, maxAge)
}

package store

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// OriginHandler serves dir's regular files statically — a minimal
// range-capable origin speaking exactly the dialect the HTTP backend
// wants: ranged GETs for positioned reads, HEAD + strong ETag
// (size + mtime) for revalidation, 404 for anything else. Keys are flat
// (no subdirectories), mirroring FS. It exists so a plain directory of
// containers can be published to remote readers without running a full
// object store: mrserve's -raw-origin flag and the store conformance tests
// both mount it.
func OriginHandler(dir string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/")
		if name == "" || strings.ContainsAny(name, `/\`) || strings.Contains(name, "..") {
			http.NotFound(w, r)
			return
		}
		path := filepath.Join(dir, name)
		st, err := os.Stat(path)
		if err != nil || st.IsDir() {
			http.NotFound(w, r)
			return
		}
		// A strong validator lets the store detect replace-while-serving
		// and conditional requests short-circuit; ServeFile then handles
		// Range, HEAD, and If-None-Match against it.
		w.Header().Set("ETag", fmt.Sprintf("\"%x-%x\"", st.Size(), st.ModTime().UnixNano()))
		http.ServeFile(w, r, path)
	})
}

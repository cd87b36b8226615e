package store

import (
	"fmt"
	"strings"
)

// Open resolves a store URL to a backend:
//
//	file:///data/containers   (or a bare path)  → FS
//	mem://                                       → a fresh empty Mem
//	http://origin/path, https://…                → HTTP range-request backend
func Open(rawurl string) (Store, error) {
	switch {
	case strings.HasPrefix(rawurl, "file://"):
		return NewFS(strings.TrimPrefix(rawurl, "file://"))
	case rawurl == "mem://" || rawurl == "mem:":
		return NewMem(), nil
	case strings.HasPrefix(rawurl, "http://") || strings.HasPrefix(rawurl, "https://"):
		return NewHTTP(rawurl, HTTPOptions{})
	case strings.Contains(rawurl, "://"):
		return nil, fmt.Errorf("store: unsupported store url %q (want file://, mem://, or http(s)://)", rawurl)
	case rawurl == "":
		return nil, fmt.Errorf("store: empty store url")
	default:
		// A bare path is the local directory backend.
		return NewFS(rawurl)
	}
}

// OpenObjectURL resolves a URL naming one object: the part after the last
// path separator is the key, and Open resolves the rest as the store:
//
//	/data/x.mrw, file:///data/x.mrw  → FS over /data/, key "x.mrw"
//	x.mrw                            → FS over ., key "x.mrw"
//	http://origin/c/x.mrw            → HTTP over http://origin/c/, key "x.mrw"
//
// A mem:// URL names nothing: a fresh Mem store holds no object.
func OpenObjectURL(rawurl string) (Store, string, error) {
	i := strings.LastIndexAny(rawurl, `/\`)
	prefix, key := rawurl[:i+1], rawurl[i+1:]
	if key == "" {
		return nil, "", fmt.Errorf("store: url %q does not name an object", rawurl)
	}
	if prefix == "" || prefix == "file://" {
		prefix += "."
	}
	st, err := Open(prefix)
	if err != nil {
		return nil, "", err
	}
	if _, ok := st.(*Mem); ok {
		return nil, "", fmt.Errorf("store: url %q does not name an object", rawurl)
	}
	return st, key, nil
}

package repro

// Public surface of the codec table (internal/codec): name validation
// for flags and query parameters, and the "level:codec" spec syntax shared
// by mrcompress -levelcodecs and mrserve's ?levelcodecs=.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/codec"
)

// Codecs returns the names of every compression backend,
// sorted — the vocabulary Options.Compressor, Options.LevelCodecs, CLI
// flags, and mrserve query parameters accept.
func Codecs() []string { return codec.Names() }

// lookupCodec resolves a Compressor name through the codec table ("" = the
// default backend, sz3).
func lookupCodec(name Compressor) (codec.Codec, error) {
	s := string(name)
	if s == "" {
		s = string(SZ3)
	}
	c, ok := codec.ByName(s)
	if !ok {
		return codec.Codec{}, fmt.Errorf("repro: %w", codec.ErrUnknownName(s))
	}
	return c, nil
}

// ParseCodec validates a backend name against the codec table and
// returns it in canonical (lowercase) form. The empty string resolves to
// the default backend; an unknown name errors with the known
// vocabulary, so CLI flags and HTTP handlers surface an actionable message.
func ParseCodec(name string) (Compressor, error) {
	c, err := lookupCodec(Compressor(name))
	if err != nil {
		return "", err
	}
	return Compressor(c.Name()), nil
}

// ParseLevelCodecs parses a per-level codec override spec: comma-separated
// "level:codec" pairs, e.g. "0:sz3,2:flate" (level 0 = finest). Every
// codec name must be known; an empty spec yields a nil map.
func ParseLevelCodecs(spec string) (map[int]Compressor, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := make(map[int]Compressor)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		lvl, name, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("repro: level codec %q is not level:codec", part)
		}
		l, err := strconv.Atoi(strings.TrimSpace(lvl))
		if err != nil || l < 0 {
			return nil, fmt.Errorf("repro: bad level %q in level codec spec", lvl)
		}
		name = strings.TrimSpace(name)
		c, ok := codec.ByName(name)
		if !ok {
			return nil, fmt.Errorf("repro: %w", codec.ErrUnknownName(name))
		}
		if _, dup := out[l]; dup {
			return nil, fmt.Errorf("repro: level %d named twice in level codec spec", l)
		}
		out[l] = Compressor(c.Name())
	}
	return out, nil
}

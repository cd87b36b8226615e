package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// byteCodec is the test spill codec: values are []byte payloads.
func byteEncode(v any) ([]byte, bool) {
	b, ok := v.([]byte)
	return b, ok
}

func byteDecode(payload []byte) (any, int64, bool) {
	return append([]byte(nil), payload...), int64(len(payload)), true
}

func TestDiskTierRoundTripAndBudget(t *testing.T) {
	// Each spill file costs len(framing)+len(payload); size the budget for
	// roughly three 100-byte entries.
	tier, err := NewDiskTier(t.TempDir(), 350)
	if err != nil {
		t.Fatal(err)
	}

	pay := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100-len(fmt.Sprintf("k%d", i))-1) }
	for i := 0; i < 3; i++ {
		tier.put(fmt.Sprintf("k%d", i), pay(i))
	}
	for i := 0; i < 3; i++ {
		got, ok := tier.get(fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(got, pay(i)) {
			t.Fatalf("k%d: round trip failed (ok=%v)", i, ok)
		}
	}
	st := tier.Stats()
	if st.Entries != 3 || st.Writes != 3 || st.Evictions != 0 {
		t.Fatalf("pre-eviction stats %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("occupancy %d exceeds budget %d", st.Bytes, st.Budget)
	}

	// k0 was just touched by the get loop's ordering… make the LRU order
	// explicit: touch k1 and k2, then insert k3 — k0 must be the victim.
	tier.get("k1")
	tier.get("k2")
	tier.put("k3", pay(3))
	if _, ok := tier.get("k0"); ok {
		t.Fatal("k0 survived an over-budget insert despite being LRU")
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, ok := tier.get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	st = tier.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	if st.Bytes > st.Budget {
		t.Fatalf("occupancy %d exceeds budget %d after eviction", st.Bytes, st.Budget)
	}

	// The directory never holds more bytes than the index says: evicted and
	// replaced spill files are deleted, not leaked.
	tier.put("k3", pay(4)) // replace
	var onDisk int64
	ents, err := os.ReadDir(tier.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if st := tier.Stats(); onDisk != st.Bytes {
		t.Fatalf("directory holds %d bytes, index says %d (stale spill files leaked)", onDisk, st.Bytes)
	}

	// An entry bigger than the whole budget is refused outright.
	tier.put("huge", make([]byte, 1000))
	if _, ok := tier.get("huge"); ok {
		t.Fatal("over-budget entry was spilled")
	}
}

func TestDiskTierSweepsResidueAndRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	residue := filepath.Join(dir, "00000000deadbeef.spill")
	if err := os.WriteFile(residue, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	tier, err := NewDiskTier(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(residue); !os.IsNotExist(err) {
		t.Fatal("startup did not sweep residue spill files")
	}

	// A corrupted spill file is detected by its embedded key and dropped.
	tier.put("k", []byte("payload"))
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one spill file, got %d (%v)", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte("\x01Xgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.get("k"); ok {
		t.Fatal("corrupt spill served")
	}
	if st := tier.Stats(); st.Entries != 0 {
		t.Fatalf("corrupt entry not dropped from the index: %+v", st)
	}
	// …and a vanished file likewise.
	tier.put("k2", []byte("payload"))
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	if _, ok := tier.get("k2"); ok {
		t.Fatal("vanished spill served")
	}
}

// TestCacheSpillsEvictionsToDiskTier locks the two-tier flow end to end:
// memory-budget evictions spill to disk, and GetTier reloads and re-promotes
// them.
func TestCacheSpillsEvictionsToDiskTier(t *testing.T) {
	c := New(256, 1)
	tier, err := NewDiskTier(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDiskTier(tier, byteEncode, byteDecode)

	a := bytes.Repeat([]byte{1}, 200)
	b := bytes.Repeat([]byte{2}, 200)
	c.Put("f/a", a, int64(len(a)))
	c.Put("f/b", b, int64(len(b))) // evicts f/a from the 256-byte memory tier

	if _, ok := c.Get("f/a"); ok {
		t.Fatal("f/a still in the memory tier")
	}
	v, tierHit, ok := c.GetTier("f/a")
	if !ok || tierHit != TierDisk {
		t.Fatalf("GetTier(f/a) = (tier %v, ok %v), want a disk hit", tierHit, ok)
	}
	if !bytes.Equal(v.([]byte), a) {
		t.Fatal("disk tier returned different bytes")
	}
	// The disk hit re-promoted f/a into memory (evicting f/b in turn).
	if _, ok := c.Get("f/a"); !ok {
		t.Fatal("disk hit did not promote f/a back into the memory tier")
	}
}

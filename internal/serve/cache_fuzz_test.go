package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCacheSegmentOpen feeds arbitrary bytes to the disk tier's loader
// as segment content: alone, after valid records, and before them.
// Open must never panic, and every lookup must return bytes that the
// segment holds as a record appended under that key, or miss. Valid
// records ahead of the arbitrary bytes must still load, unless those
// bytes carry their key.
func FuzzCacheSegmentOpen(f *testing.F) {
	valid := []entry{testEntry(1), testEntry(2), testEntry(3)}
	var records []byte
	for _, e := range valid {
		records = append(records, encodeRecord(e.key, e.json)...)
	}
	f.Add([]byte{})
	f.Add(records)
	f.Add(records[:len(records)-5])
	f.Add([]byte("{not json"))
	torn := append([]byte{}, records...)
	torn[recHeader+len(valid[0].key)+2] ^= 0x01
	f.Add(torn)
	liar := testEntry(1)
	liar.json = testEntry(2).json
	f.Add(encodeRecord(liar.key, liar.json))

	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	f.Fuzz(func(t *testing.T, data []byte) {
		const recordsFirst = 1
		for mode, seg := range [][]byte{
			data,
			recordsFirst: append(append([]byte{}, records...), data...),
			append(append([]byte{}, data...), records...),
		} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segPrefix+"1"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			c := openCache(t, dir, nil)
			for _, e := range valid {
				got, ok := c.loadDisk(e.key)
				if !ok {
					if mode == recordsFirst && !bytes.Contains(data, []byte(e.key)) {
						t.Fatalf("valid record %s ahead of the input missed", e.key)
					}
					continue
				}
				var env struct {
					Key string `json:"key"`
				}
				if !bytes.Contains(seg, encodeRecord(e.key, got.json)) || json.Unmarshal(got.json, &env) != nil || env.Key != e.key {
					t.Fatalf("lookup of %s returned %q, which the segment does not hold under that key", e.key, got.json)
				}
			}
			if err := c.close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

package tablestore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"protemp/internal/core"
)

// testTable builds a small structurally valid table by hand — no
// solver involved, so codec tests stay fast.
func testTable() *core.Table {
	return &core.Table{
		TMax:     100,
		FMax:     1e9,
		NumCores: 2,
		Variant:  "variable",
		TStarts:  []float64{47, 100},
		FTargets: []float64{2.5e8, 5e8},
		Entries: [][]core.Entry{
			{
				{Feasible: true, Freqs: []float64{2e8, 3e8}, AvgFreq: 2.5e8, TotalPower: 1.2, PeakTemp: 61},
				{Feasible: true, Freqs: []float64{5e8, 5e8}, AvgFreq: 5e8, TotalPower: 2.5, PeakTemp: 72},
			},
			{
				{Feasible: true, Freqs: []float64{1e8, 4e8}, AvgFreq: 2.5e8, TotalPower: 1.5, PeakTemp: 88},
				{},
			},
		},
		Stats: core.TableStats{Solves: 4, Feasible: 3, NewtonIters: 40},
	}
}

func tablesEqual(t *testing.T, got, want *core.Table) {
	t.Helper()
	if got.NumCores != want.NumCores || got.FMax != want.FMax || got.Variant != want.Variant {
		t.Fatalf("header mismatch: got %+v", got)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("rows: %d vs %d", len(got.Entries), len(want.Entries))
	}
	for ti := range want.Entries {
		for fi := range want.Entries[ti] {
			g, w := got.Entries[ti][fi], want.Entries[ti][fi]
			if g.Feasible != w.Feasible || g.AvgFreq != w.AvgFreq {
				t.Fatalf("entry (%d,%d) mismatch: %+v vs %+v", ti, fi, g, w)
			}
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecGzipJSON} {
		var buf bytes.Buffer
		if err := EncodeCodec(&buf, testTable(), codec); err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		tablesEqual(t, got, testTable())
	}
}

func TestDecodeLegacyJSONFallback(t *testing.T) {
	var buf bytes.Buffer
	if err := testTable().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("legacy fallback: %v", err)
	}
	tablesEqual(t, got, testTable())
}

func TestDecodeDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeCodec(&buf, testTable(), CodecJSON); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-2] ^= 0xff // flip a payload byte under the checksum
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted payload decoded without error")
	}
}

// TestDecodeRejectsImplausibleLength: a corrupted length field must
// fail cleanly, not panic or OOM on the allocation.
func TestDecodeRejectsImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testTable()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Length lives after magic (8), version (4) and codec (1).
	for i := 13; i < 21; i++ {
		b[i] = 0xff
	}
	if _, err := Decode(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("want length error, got %v", err)
	}
}

// TestDecodeShortPayloadAllocatesLittle: a plausible length that the
// payload does not back must fail on the short read having allocated
// about what the input holds, not the claimed length.
func TestDecodeShortPayloadAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeCodec(&buf, testTable(), CodecJSON); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Length lives after magic (8), version (4) and codec (1).
	binary.LittleEndian.PutUint64(b[13:21], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a payload shorter than its length decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte input claiming 1 GiB allocated %d bytes", len(b), got)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testTable()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 99 // version byte
	if _, err := Decode(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestEncodeRejectsInvalidTable(t *testing.T) {
	bad := testTable()
	bad.Entries = bad.Entries[:1] // row count no longer matches TStarts
	if err := Encode(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("invalid table encoded without error")
	}
}

func TestStoreSaveLoadKeysDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab12", 16)
	if _, err := s.Load(key); err != ErrNotFound {
		t.Fatalf("missing key: want ErrNotFound, got %v", err)
	}
	if err := s.Save(key, testTable()); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, testTable())

	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("keys = %v", keys)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(key); err != ErrNotFound {
		t.Fatalf("after delete: want ErrNotFound, got %v", err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../../etc/passwd", "ABCDEF1234567890", strings.Repeat("x", 64)} {
		if err := s.Save(key, testTable()); err == nil {
			t.Fatalf("key %q accepted", key)
		}
		if _, err := s.Load(key); err == nil || err == ErrNotFound {
			t.Fatalf("key %q loaded: %v", key, err)
		}
	}
}

// TestStoreLoadCorruptFile makes sure a torn or corrupted file surfaces
// as an error (counted upstream), not a bogus table.
func TestStoreLoadCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("00ff", 16)
	if err := os.WriteFile(filepath.Join(dir, key+FileExt), []byte("PTBLSTO\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(key); err == nil || err == ErrNotFound {
		t.Fatalf("corrupt file: got %v", err)
	}
}

// FuzzDecode feeds Decode arbitrary bytes, seeded with a valid
// envelope, the envelope truncated, the envelope with one payload byte
// flipped, a legacy bare-JSON table and empty input. Decode must never
// panic, and any table it accepts must pass Table.Validate.
func FuzzDecode(f *testing.F) {
	var env bytes.Buffer
	if err := EncodeCodec(&env, testTable(), CodecJSON); err != nil {
		f.Fatal(err)
	}
	valid := env.Bytes()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-2] ^= 0xff
	var legacy bytes.Buffer
	if err := testTable().WriteJSON(&legacy); err != nil {
		f.Fatal(err)
	}
	var gz bytes.Buffer
	if err := Encode(&gz, testTable()); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], flipped, legacy.Bytes(), gz.Bytes(), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tbl.Validate(); err != nil {
			t.Fatalf("Decode accepted a table that fails Validate: %v", err)
		}
	})
}

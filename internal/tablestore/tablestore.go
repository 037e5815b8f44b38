// Package tablestore persists Phase-1 tables across process restarts:
// a versioned on-disk codec for core.Table plus a directory-backed
// store keyed by core.TableSpec.CacheKey(). The paper's split — an
// expensive offline convex sweep feeding a cheap online controller —
// only pays off in a service if the sweep survives the service: the
// store is the second tier under the engine's in-memory LRU, so a
// restarted server comes up warm and tables produced by protemp-table
// can be dropped into a serving directory.
//
// On-disk format (version 1):
//
//	magic   8 bytes  "PTBLSTO\x01"
//	version uint32   little-endian, currently 1
//	codec   uint8    0 = raw JSON, 1 = gzip-compressed JSON
//	length  uint64   little-endian payload byte count (pre-compression)
//	sum     32 bytes SHA-256 of the (uncompressed) JSON payload
//	payload          the table, core.Table JSON, possibly gzipped
//
// Decode sniffs the magic and falls back to the legacy bare-JSON
// format emitted by earlier protemp-table builds, so both generations
// of files load through one entry point.
package tablestore

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"protemp/internal/core"
)

// magic identifies a versioned table file. The trailing byte is
// deliberately non-printable so a JSON document can never collide.
var magic = [8]byte{'P', 'T', 'B', 'L', 'S', 'T', 'O', 0x01}

// Version is the current codec version.
const Version = 1

// Codec selects the payload encoding inside the versioned envelope.
type Codec uint8

const (
	// CodecJSON stores the payload as raw JSON.
	CodecJSON Codec = 0
	// CodecGzipJSON stores the payload gzip-compressed (the default:
	// tables are dense float grids that compress well).
	CodecGzipJSON Codec = 1
)

// ErrNotFound reports a key with no stored table.
var ErrNotFound = errors.New("tablestore: table not found")

// Encode writes t through the versioned envelope with the default
// gzip codec.
func Encode(w io.Writer, t *core.Table) error {
	return EncodeCodec(w, t, CodecGzipJSON)
}

// EncodeCodec writes t with an explicit payload codec.
func EncodeCodec(w io.Writer, t *core.Table, codec Codec) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("tablestore: refusing to encode invalid table: %w", err)
	}
	payload, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("tablestore: marshal table: %w", err)
	}
	sum := sha256.Sum256(payload)

	var body []byte
	switch codec {
	case CodecJSON:
		body = payload
	case CodecGzipJSON:
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			return fmt.Errorf("tablestore: gzip: %w", err)
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("tablestore: gzip: %w", err)
		}
		body = buf.Bytes()
	default:
		return fmt.Errorf("tablestore: unknown codec %d", codec)
	}

	var header bytes.Buffer
	header.Write(magic[:])
	binary.Write(&header, binary.LittleEndian, uint32(Version))
	header.WriteByte(byte(codec))
	binary.Write(&header, binary.LittleEndian, uint64(len(payload)))
	header.Write(sum[:])
	if _, err := w.Write(header.Bytes()); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// Decode reads a table in either format: the versioned envelope
// (checksum-verified) or, when the magic is absent, the legacy bare
// JSON emitted by earlier protemp-table builds. The decoded table is
// structurally validated before it is returned.
func Decode(r io.Reader) (*core.Table, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magic))
	if err != nil || !bytes.Equal(head, magic[:]) {
		// Legacy fallback: a bare JSON document (possibly shorter than
		// the magic itself — Peek's short read still returns what it has).
		return core.ReadTableJSON(br)
	}
	if _, err := br.Discard(len(magic)); err != nil {
		return nil, err
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("tablestore: read version: %w", err)
	}
	if version != Version {
		return nil, fmt.Errorf("tablestore: unsupported version %d (want %d)", version, Version)
	}
	codecByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("tablestore: read codec: %w", err)
	}
	var length uint64
	if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
		return nil, fmt.Errorf("tablestore: read length: %w", err)
	}
	// Bound the allocation before trusting an on-disk length: a
	// corrupted header must degrade like any other bad file, not
	// panic or OOM the process.
	const maxPayload = 1 << 30
	if length == 0 || length > maxPayload {
		return nil, fmt.Errorf("tablestore: implausible payload length %d (corrupt header)", length)
	}
	var sum [sha256.Size]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("tablestore: read checksum: %w", err)
	}

	var payloadSrc io.Reader = br
	switch Codec(codecByte) {
	case CodecJSON:
	case CodecGzipJSON:
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("tablestore: gzip: %w", err)
		}
		defer zr.Close()
		payloadSrc = zr
	default:
		return nil, fmt.Errorf("tablestore: unknown codec %d", codecByte)
	}
	// Read what is there rather than allocating the claimed length up
	// front: a 55-byte header claiming a 1 GiB payload would otherwise
	// cost 1 GiB before the short read fails.
	payload, err := io.ReadAll(io.LimitReader(payloadSrc, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("tablestore: read payload: %w", err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("tablestore: read payload: %w", io.ErrUnexpectedEOF)
	}
	if got := sha256.Sum256(payload); got != sum {
		return nil, fmt.Errorf("tablestore: payload checksum mismatch (corrupt file)")
	}
	var t core.Table
	if err := json.Unmarshal(payload, &t); err != nil {
		return nil, fmt.Errorf("tablestore: decode table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// FileExt is the extension stored table files carry.
const FileExt = ".ptbl"

// Store is a directory of versioned table files keyed by
// core.TableSpec.CacheKey(). Writes are atomic (temp file + rename) so
// concurrent servers sharing one directory never observe a torn file.
// A Store is safe for concurrent use; the filesystem provides the
// synchronization.
type Store struct {
	dir string
}

// Open creates the directory if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tablestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tablestore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// validKey guards the key-to-filename mapping: cache keys are
// lowercase hex fingerprints, anything else (path separators, "..") is
// rejected before it can touch the filesystem.
func validKey(key string) error {
	if len(key) < 8 || len(key) > 128 {
		return fmt.Errorf("tablestore: key length %d outside [8, 128]", len(key))
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("tablestore: key %q is not lowercase hex", key)
		}
	}
	return nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+FileExt)
}

// Load reads, verifies and returns the table stored under key.
// A missing key returns ErrNotFound.
func (s *Store) Load(key string) (*core.Table, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("tablestore: %w", err)
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("tablestore: key %s: %w", key, err)
	}
	return t, nil
}

// Save writes the table under key atomically: encode to a temp file in
// the same directory, fsync, then rename over the final path.
func (s *Store) Save(key string, t *core.Table) error {
	if err := validKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("tablestore: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := Encode(tmp, t); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("tablestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tablestore: %w", err)
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		return fmt.Errorf("tablestore: %w", err)
	}
	return nil
}

// Delete removes the table stored under key; a missing key is not an
// error.
func (s *Store) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("tablestore: %w", err)
	}
	return nil
}

// Keys lists the stored cache keys in sorted order.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("tablestore: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, FileExt) || strings.HasPrefix(name, ".") {
			continue
		}
		key := strings.TrimSuffix(name, FileExt)
		if validKey(key) == nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

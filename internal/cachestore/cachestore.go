// Package cachestore provides the content-addressed on-disk
// implementation of engine.CacheStore and engine.FuncStore: analysis
// artifacts that survive process restarts. Per-function entries hold
// everything a function costs to build — its compiled unit and its
// generated model with warnings — so a freshly started mira-serve
// daemon restores hot programs with neither the compiler nor the metric
// generator, function by function. Whole-source entries (source text +
// encoded object file of the linked program) live beside them:
//
//	<dir>/objects/<key[:2]>/<key>.mira    whole-source entries
//	<dir>/funcs/<key[:2]>/<key>.mira      per-function entries
//
// where key is the engine's content hash (hex) for whole-source entries
// and the function-content key (core.FuncKeys) for per-function ones.
// Each entry file is self-contained and checksummed:
//
//	magic "MIRACS<version>\n" (engine.CacheFormatVersion)
//	length-prefixed sections (uvarint length + bytes):
//	    whole-source: key, name, source, object
//	    per-function: key, name, unit, model (model.EncodeFunc: the
//	                  function's model followed by its warnings)
//	sha256 over everything before it (32 bytes)
//
// Writes go through a temp file in the same directory followed by an
// atomic rename, so a crashed writer can never leave a half entry under
// the final name. Reads verify the magic, the embedded key, the section
// framing, and the checksum; any mismatch — truncation, corruption, a
// past or future format version — is a miss, never an error: a damaged
// or stale cache degrades to a rebuild, function by function. (The
// engine decodes the unit and model sections itself; a section that
// fails to decode is likewise a miss for that one function.)
package cachestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"mira/internal/engine"
)

// magic is derived from the shared cache-key format version: bumping
// engine.CacheFormatVersion retires every on-disk entry (whole-source
// and per-function alike) as a clean miss.
var magic = fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion)

// Disk is a content-addressed on-disk CacheStore.
type Disk struct {
	dir string
}

// Ensure the engine contracts are met.
var (
	_ engine.CacheStore = (*Disk)(nil)
	_ engine.FuncStore  = (*Disk)(nil)
)

// Open prepares a disk store rooted at dir, creating it if needed.
func Open(dir string) (*Disk, error) {
	for _, sub := range []string{"objects", "funcs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cachestore: %w", err)
		}
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// validKey gates what may become a file name: the engine's keys are
// lowercase hex, and anything else (path separators, dots) is refused
// outright rather than risked against the filesystem.
func validKey(key string) bool {
	if len(key) < 4 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *Disk) path(sub, key string) string {
	return filepath.Join(d.dir, sub, key[:2], key+".mira")
}

// Load reads, verifies, and decodes the whole-source entry stored under
// key. Any defect in the on-disk bytes is a miss.
func (d *Disk) Load(key string) (*engine.Entry, bool) {
	if !validKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(d.path("objects", key))
	if err != nil {
		return nil, false
	}
	sections, err := decodeSections(key, raw, 4)
	if err != nil {
		return nil, false
	}
	return &engine.Entry{
		Name:   string(sections[1]),
		Source: string(sections[2]),
		Object: append([]byte(nil), sections[3]...),
	}, true
}

// Store persists e under key, atomically.
func (d *Disk) Store(key string, e *engine.Entry) error {
	return d.write("objects", key,
		encodeSections([]byte(key), []byte(e.Name), []byte(e.Source), e.Object))
}

// LoadFunc reads, verifies, and decodes the per-function entry stored
// under key (a function-content hash). The corruption contract is the
// same as Load's: any defect is a miss, confined to this one entry —
// sibling functions keep loading, and the caller recompiles exactly the
// function that missed.
func (d *Disk) LoadFunc(key string) (*engine.FuncEntry, bool) {
	if !validKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(d.path("funcs", key))
	if err != nil {
		return nil, false
	}
	sections, err := decodeSections(key, raw, 4)
	if err != nil {
		return nil, false
	}
	return &engine.FuncEntry{
		Name:  string(sections[1]),
		Unit:  sections[2],
		Model: sections[3],
	}, true
}

// StoreFunc persists e under key, atomically.
func (d *Disk) StoreFunc(key string, e *engine.FuncEntry) error {
	return d.write("funcs", key,
		encodeSections([]byte(key), []byte(e.Name), e.Unit, e.Model))
}

// write lands raw under sub/key via temp file + atomic rename.
func (d *Disk) write(sub, key string, raw []byte) error {
	if !validKey(key) {
		return fmt.Errorf("cachestore: invalid key %q", key)
	}
	target := d.path(sub, key)
	if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(target), "tmp-*")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the write error wins
		return fmt.Errorf("cachestore: write %s: %w", key, firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), target); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the rename error wins
		return fmt.Errorf("cachestore: %w", err)
	}
	return nil
}

// Len counts the whole-source entries currently on disk (for stats and
// tests; it walks the fan-out directories).
func (d *Disk) Len() int { return d.countEntries("objects") }

// FuncLen counts the per-function entries currently on disk.
func (d *Disk) FuncLen() int { return d.countEntries("funcs") }

func (d *Disk) countEntries(sub string) int {
	n := 0
	fans, _ := os.ReadDir(filepath.Join(d.dir, sub))
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(d.dir, sub, fan.Name()))
		for _, f := range files {
			if filepath.Ext(f.Name()) == ".mira" {
				n++
			}
		}
	}
	return n
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func putSection(buf *bytes.Buffer, b []byte) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(b)))
	buf.Write(tmp[:n])
	buf.Write(b)
}

// encodeSections frames the entry body shared by both entry kinds:
// magic, uvarint-length-prefixed sections, trailing sha256.
func encodeSections(sections ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	for _, s := range sections {
		putSection(&buf, s)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// decodeSections verifies magic, checksum, and framing, and returns
// exactly want sections; sections[0] must equal key. Any defect is an
// error the caller turns into a miss.
func decodeSections(key string, raw []byte, want int) ([][]byte, error) {
	if len(raw) < len(magic)+sha256.Size || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic or truncated")
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	wantSum := sha256.Sum256(body)
	if !bytes.Equal(sum, wantSum[:]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	r := body[len(magic):]
	sections := make([][]byte, want)
	for i := range sections {
		length, n := binary.Uvarint(r)
		if n <= 0 || uint64(len(r)-n) < length {
			return nil, fmt.Errorf("section %d framing", i)
		}
		sections[i] = r[n : n+int(length)]
		r = r[n+int(length):]
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	if string(sections[0]) != key {
		return nil, fmt.Errorf("entry key %q under file key %q", sections[0], key)
	}
	return sections, nil
}

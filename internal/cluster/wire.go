package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"mira/internal/engine"
)

// Peer payloads reuse the cachestore entry discipline on the wire: a
// version-bearing magic, uvarint-length-prefixed sections, and a
// trailing sha256 over everything before it. A peer is just another
// process's cache, and the same trust rules apply — any defect in the
// received bytes (truncation by a dying peer, a proxy mangling the
// body, a version skew across a rolling deploy) is a clean miss for
// exactly that entry, never an error and never a poisoned store.
//
//	magic: whole-source "MIRAPEER<version>\n", per-function
//	       "MIRAPEERF<version>\n" (engine.CacheFormatVersion)
//	whole-source: key, name, source, object
//	per-function: key, name, unit, model
//	sha256 over everything before it (32 bytes)

// The magics are derived from the shared cache-key format version, so a
// replica running a newer format reads an older peer's payloads as
// misses instead of garbage. Each entry kind has its own, so a payload of
// one kind never decodes as the other.
var (
	peerMagic     = fmt.Sprintf("MIRAPEER%d\n", engine.CacheFormatVersion)
	peerFuncMagic = fmt.Sprintf("MIRAPEERF%d\n", engine.CacheFormatVersion)
)

// maxPeerPayload bounds what a replica will read from a peer response
// or replication PUT: compiled artifacts are kilobytes; anything near
// this bound is corrupt or hostile.
const maxPeerPayload = 64 << 20

// EncodeEntry frames a whole-source entry for the peer wire.
func EncodeEntry(key string, e *engine.Entry) []byte {
	return encodeFrame(peerMagic, []byte(key), []byte(e.Name), []byte(e.Source), e.Object)
}

// DecodeEntry verifies and decodes a peer whole-source payload. Any
// framing or checksum defect, or a payload whose embedded key is not
// the requested one, is an error the caller treats as a miss.
func DecodeEntry(key string, raw []byte) (*engine.Entry, error) {
	sections, err := decodeFrame(peerMagic, key, raw, 4)
	if err != nil {
		return nil, err
	}
	return &engine.Entry{
		Name:   string(sections[1]),
		Source: string(sections[2]),
		Object: append([]byte(nil), sections[3]...),
	}, nil
}

// EncodeFuncEntry frames a per-function entry — unit and model — for
// the peer wire.
func EncodeFuncEntry(key string, e *engine.FuncEntry) []byte {
	return encodeFrame(peerFuncMagic, []byte(key), []byte(e.Name), e.Unit, e.Model)
}

// DecodeFuncEntry verifies and decodes a peer per-function payload. The
// unit and model sections stay encoded; the engine decodes them, and a
// defect there is a miss for that one function.
func DecodeFuncEntry(key string, raw []byte) (*engine.FuncEntry, error) {
	sections, err := decodeFrame(peerFuncMagic, key, raw, 4)
	if err != nil {
		return nil, err
	}
	return &engine.FuncEntry{
		Name:  string(sections[1]),
		Unit:  append([]byte(nil), sections[2]...),
		Model: append([]byte(nil), sections[3]...),
	}, nil
}

func putSection(buf *bytes.Buffer, b []byte) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(b)))
	buf.Write(tmp[:n])
	buf.Write(b)
}

func encodeFrame(magic string, sections ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	for _, s := range sections {
		putSection(&buf, s)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// decodeFrame verifies magic, checksum, and framing, returning exactly
// want sections; sections[0] must equal key.
func decodeFrame(magic, key string, raw []byte, want int) ([][]byte, error) {
	if len(raw) < len(magic)+sha256.Size || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("cluster: bad magic or truncated payload")
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	wantSum := sha256.Sum256(body)
	if !bytes.Equal(sum, wantSum[:]) {
		return nil, fmt.Errorf("cluster: payload checksum mismatch")
	}
	r := body[len(magic):]
	sections := make([][]byte, want)
	for i := range sections {
		length, n := binary.Uvarint(r)
		if n <= 0 || uint64(len(r)-n) < length {
			return nil, fmt.Errorf("cluster: payload section %d framing", i)
		}
		sections[i] = r[n : n+int(length)]
		r = r[n+int(length):]
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("cluster: trailing payload bytes")
	}
	if string(sections[0]) != key {
		return nil, fmt.Errorf("cluster: payload key %q under requested key %q", sections[0], key)
	}
	return sections, nil
}

// validKey gates what may become a peer-protocol path segment: the
// engine's content keys are lowercase hex, and anything else is
// refused before it reaches a URL or a store.
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

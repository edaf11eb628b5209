package engine

import "sync"

// Entry is one persisted whole-source artifact: the inputs plus the
// encoded object file of the linked program. The engine writes one per
// build; it restores nothing from them (warm restarts go through the
// per-function entries of a FuncStore), but they keep every analyzed
// program's linked object on record for tools that read the store.
// Source rides along even though the cache key already fingerprints it,
// so an entry is self-contained and verifiable.
type Entry struct {
	Name   string
	Source string
	Object []byte
}

// CacheStore persists whole-source artifacts keyed by the engine's
// content hash. Implementations must be safe for concurrent use and must treat
// unreadable or corrupt entries as misses (Load ok=false), never as
// errors — a damaged cache degrades to a recompile, it does not take the
// service down. Store errors are reported so callers can count them, but
// the engine treats a failed Store as advisory: the analysis it just
// built is still served.
type CacheStore interface {
	Load(key string) (*Entry, bool)
	Store(key string, e *Entry) error
}

// FuncEntry is one persisted per-function artifact, stored under the
// function-content key computed by core.FuncKeys: the compiled unit (an
// object-file fragment with unresolved, name-based call sites) and the
// function's generated model with its warnings, each in its portable
// encoding (core.EncodeUnit, core.EncodeModel). Holding both, an entry
// restores the function without compiling or modeling it. The function's
// qualified name rides along for diagnostics; the key alone is the
// identity.
type FuncEntry struct {
	Name  string
	Unit  []byte
	Model []byte
}

// FuncStore is the optional function-granular extension of CacheStore,
// and the tier warm restarts and peer hits are served from: per-function
// artifacts keyed by function-content hash, so an edit to one function
// re-persists one small entry instead of the whole program, and
// unchanged functions restore across processes and across *different*
// source files sharing code. The corruption contract matches CacheStore:
// a damaged entry is a miss (that one function compiles and is modeled
// again), never an error, and never affects sibling entries.
type FuncStore interface {
	LoadFunc(key string) (*FuncEntry, bool)
	StoreFunc(key string, e *FuncEntry) error
}

// MemoryStore is the in-process CacheStore: a mutex-guarded map, the
// persistence shape the engine's live cache had before the interface was
// extracted. It buys nothing over the engine's own singleflight map for
// a single engine, but gives tests and multi-engine setups a shared
// store with zero I/O. It also implements FuncStore.
type MemoryStore struct {
	mu    sync.Mutex
	m     map[string]*Entry
	funcs map[string]*FuncEntry
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{m: map[string]*Entry{}, funcs: map[string]*FuncEntry{}}
}

// Load returns the entry stored under key.
func (s *MemoryStore) Load(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	return e, ok
}

// Store saves e under key.
func (s *MemoryStore) Store(key string, e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = e
	return nil
}

// LoadFunc returns the per-function entry stored under key.
func (s *MemoryStore) LoadFunc(key string) (*FuncEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.funcs[key]
	return e, ok
}

// StoreFunc saves e under key.
func (s *MemoryStore) StoreFunc(key string, e *FuncEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcs[key] = e
	return nil
}

// Len reports the number of stored whole-source entries.
func (s *MemoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// FuncLen reports the number of stored per-function entries.
func (s *MemoryStore) FuncLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.funcs)
}

package arch

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEmbeddedProfilesRoundTrip is the JSON round-trip property for
// every embedded profile: ToJSON → FromJSON must reproduce the
// description exactly, and the round-tripped copy must carry the same
// content key (the key is a hash of the canonical JSON, so equality
// here means the serialization really is canonical).
func TestEmbeddedProfilesRoundTrip(t *testing.T) {
	for _, d := range builtins() {
		data, err := d.ToJSON()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		d2, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Errorf("%s: round trip changed the description", d.Name)
		}
		if d.ContentKey() != d2.ContentKey() {
			t.Errorf("%s: content key changed across round trip", d.Name)
		}
	}
}

// TestRegistryEntriesDistinct asserts the registry invariants the
// caching layers depend on: every entry validates, and no two entries
// share a content key.
func TestRegistryEntriesDistinct(t *testing.T) {
	r := NewRegistry()
	if r.Len() < 10 {
		t.Fatalf("registry has %d entries, want >= 10", r.Len())
	}
	seen := map[string]string{}
	for _, e := range r.Entries() {
		if err := e.Desc.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if len(e.Key) != 64 {
			t.Errorf("%s: content key %q is not a sha256 hex digest", e.Name, e.Key)
		}
		if prev, ok := seen[e.Key]; ok {
			t.Errorf("%s and %s share content key %s", prev, e.Name, e.Key)
		}
		seen[e.Key] = e.Name
	}
}

func TestContentKeyTracksParameters(t *testing.T) {
	a, b := Generic(), Generic()
	if a.ContentKey() != b.ContentKey() {
		t.Error("identical descriptions got different content keys")
	}
	b.MemBandwidthGBs *= 2
	if a.ContentKey() == b.ContentKey() {
		t.Error("bandwidth change did not change the content key")
	}
}

// TestKeyOfNilIsGeneric pins the precomputed default key: a nil
// description keys as Generic, whose key must track its parameters.
func TestKeyOfNilIsGeneric(t *testing.T) {
	if got, want := KeyOf(nil), Generic().ContentKey(); got != want {
		t.Errorf("KeyOf(nil) = %s, want Generic().ContentKey() = %s", got, want)
	}
	if d := Arya(); KeyOf(d) != d.ContentKey() {
		t.Errorf("KeyOf(arya) = %s, want its ContentKey %s", KeyOf(d), d.ContentKey())
	}
}

func TestRegistryAliases(t *testing.T) {
	r := NewRegistry()
	for name, want := range map[string]string{
		"haswell": "arya", "nehalem": "frankenstein", "": "generic",
	} {
		e, err := r.LookupEntry(name)
		if err != nil || e.Name != want {
			t.Errorf("LookupEntry(%q) = %v/%v, want %s", name, e.Name, err, want)
		}
	}
}

// TestLookupErrorListsRegistry pins the satellite fix: the
// unknown-architecture error derives its name list from the registry,
// so it can never drift from the real set of builtins again.
func TestLookupErrorListsRegistry(t *testing.T) {
	r := NewRegistry()
	_, err := r.Lookup("vax")
	if err == nil {
		t.Fatal("unknown architecture accepted")
	}
	for _, name := range r.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention builtin %s", err, name)
		}
	}
}

func TestRegisterRejects(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Generic()); err == nil {
		t.Error("duplicate name accepted")
	}
	alias := Generic()
	alias.Name = "haswell"
	if err := r.Register(alias); err == nil {
		t.Error("alias-shadowing name accepted")
	}
	bad := Generic()
	bad.Name = "broken"
	bad.MemBandwidthGBs = 0
	if err := r.Register(bad); err == nil {
		t.Error("invalid description accepted")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	custom := Generic()
	custom.Name = "mymachine"
	custom.MemBandwidthGBs = 123.4
	data, err := custom.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mymachine.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-JSON files are skipped, not errors.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("notes"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	before := r.Len()
	n, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || r.Len() != before+1 {
		t.Fatalf("loaded %d (len %d), want 1 (len %d)", n, r.Len(), before+1)
	}
	d, err := r.Lookup("mymachine")
	if err != nil {
		t.Fatal(err)
	}
	if d.MemBandwidthGBs != 123.4 {
		t.Errorf("bandwidth = %g, want 123.4", d.MemBandwidthGBs)
	}

	// A second load of the same directory collides on the name.
	if _, err := r.LoadDir(dir); err == nil {
		t.Error("reloading the same directory did not report the name collision")
	}

	// An invalid description fails the whole load.
	bad := Generic()
	bad.Name = "bad"
	bad.MemBandwidthGBs = -1
	raw, _ := bad.ToJSON()
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "bad.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry().LoadDir(dir2); err == nil {
		t.Error("invalid description loaded without error")
	}
}

func TestResolve(t *testing.T) {
	r := NewRegistry()
	d, err := r.Resolve("skylake")
	if err != nil || d.Name != "skylake" {
		t.Fatalf("Resolve(skylake) = %v/%v", d, err)
	}

	custom := Generic()
	custom.Name = "filearch"
	data, err := custom.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "filearch.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = r.Resolve(path)
	if err != nil || d.Name != "filearch" {
		t.Fatalf("Resolve(%s) = %v/%v", path, d, err)
	}
	// The package-level helper matches.
	d, err = Resolve(path)
	if err != nil || d.Name != "filearch" {
		t.Fatalf("package Resolve(%s) = %v/%v", path, d, err)
	}
	if _, err := r.Resolve(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

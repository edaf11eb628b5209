package cc

import (
	"runtime"
	"strings"
	"testing"
)

// TestDecodeUnitCountsCappedByInput: an instruction count the input
// cannot hold is refused before it sizes an allocation (a six-byte unit
// used to allocate for up to 16M instructions).
func TestDecodeUnitCountsCappedByInput(t *testing.T) {
	raw := []byte{1, 'f', 0xff, 0xff, 0xff, 0x07} // name "f", count 2^24-1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeUnitBytes(raw)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("err = %v, want a count refusal", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("refusing a hostile count allocated %d bytes", alloc)
	}
}

// Go fuses x*y+z into one rounding on amd64 from GOAMD64=v3 and on
// other architectures, which can move the discretization's low bits and
// so the key: the golden is pinned for the baseline amd64 build.
//go:build amd64 && !amd64.v3

package protemp

import "testing"

// TestDefaultTableKeyGolden pins the default engine's table key
// (Niagara, the paper's window, the default grids, the variable
// variant). Stored and peer-cached tables are filed under it, so a
// change to what the key hashes, or how, orphans every one of them and
// must be deliberate: bump the prefix in core.TableSpec.CacheKey and
// re-pin.
func TestDefaultTableKeyGolden(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const want = "8473e29f3119022633e9b8395ca1958afa1b4419872f792503e9077a20c468ba"
	if got := e.TableKey(nil, nil, e.Variant()); got != want {
		t.Fatalf("default table key %s, want %s", got, want)
	}
}

package dataset

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV loader, the decoder every
// file-backed collection goes through. ReadCSV must never panic; an
// accepted input must be a rectangular matrix; and writing it back with
// WriteCSV and re-reading must reproduce it bit for bit (NaN-aware,
// since NaN never equals itself).
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"", "1,2\n3,4\n", "0.5\n", "1,2\n3\n", "1,abc\n", "\n\n1,2\n\n",
		"NaN,+Inf,-Inf,-0\n", "1e308,5e-324,0x1p-2\n", "\"1\",\"2\"\n",
		"1,2\r\n3,4", "\"1\n\",2\n", ",\n", "1,,2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(m.Flat()) != m.N()*m.D() {
			t.Fatalf("accepted matrix is not rectangular: %d values for %d×%d", len(m.Flat()), m.N(), m.D())
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatalf("WriteCSV of an accepted matrix: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output %q: %v", buf.String(), err)
		}
		if back.N() != m.N() || back.D() != m.D() {
			t.Fatalf("round trip changed the shape: %d×%d -> %d×%d", m.N(), m.D(), back.N(), back.D())
		}
		for i, v := range m.Flat() {
			w := back.Flat()[i]
			if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("round trip changed value %d: %v -> %v", i, v, w)
			}
		}
	})
}

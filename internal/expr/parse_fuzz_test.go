package expr

import (
	"testing"

	"repro/internal/types"
)

// fuzzScope types every attribute name the parse seeds use.
var fuzzScope = MapScope{
	"x": types.Int, "y": types.Int, "f": types.Float, "g": types.Float,
	"s": types.Text, "u": types.Text, "b": types.Bool, "d": types.Date,
}

// FuzzParse holds printing to be the inverse of parsing, the property
// Save relies on when it persists computed definitions as source: any
// source that parses prints to a string that parses again, prints to the
// same string, and type-checks to the same kind (or the same error).
// Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"x + y * 2", "x / 2.0", "-0.0", "'\\'", "'it''s'", `'a\nb'`,
		"not (b) and x >= -3", "sqrt(f) > 1e-07", "s || 'z' < u", "d - 30",
		"if(b, x, f) % 2.5", "str(null)", "1e21", "(x = 3) = b",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n1, err := Parse(src)
		if err != nil {
			return
		}
		s1 := n1.String()
		n2, err := Parse(s1)
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", src, s1, err)
		}
		if s2 := n2.String(); s2 != s1 {
			t.Fatalf("%q printed as %q, reprinted as %q", src, s1, s2)
		}
		k1, err1 := Check(n1, fuzzScope)
		k2, err2 := Check(n2, fuzzScope)
		if k1 != k2 || (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("%q checks as %s (%v), its print %q as %s (%v)", src, k1, err1, s1, k2, err2)
		}
	})
}

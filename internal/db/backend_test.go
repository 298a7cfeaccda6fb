package db

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/types"
)

func testBackends(t *testing.T) map[string]rel.Backend {
	fb, err := rel.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]rel.Backend{"mem": rel.NewMemBackend(), "file": fb}
}

// TestBackendSaveLoadRoundTrip mirrors TestSaveLoadRoundTrip over the
// segment path: tables come back chunk-backed with tuples, computed
// attributes, indexes, programs, and definitions intact.
func TestBackendSaveLoadRoundTrip(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			d := seeded(t)
			err := d.AlterTable("Stations", func(st *rel.Relation) error {
				if err := st.AddComputed("alt2", expr.MustParse("altitude * 2")); err != nil {
					return err
				}
				return st.CreateIndex("state")
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SaveProgram("prog", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := d.SaveDef("defn", []byte("x")); err != nil {
				t.Fatal(err)
			}
			st, err := d.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}

			if err := d.SaveBackend(b); err != nil {
				t.Fatal(err)
			}
			d2 := New()
			if err := d2.LoadBackend(b); err != nil {
				t.Fatal(err)
			}

			st2, err := d2.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}
			if !st2.ChunkBacked() {
				t.Fatal("backend-loaded table is not chunk-backed")
			}
			if st2.Len() != st.Len() {
				t.Fatalf("tuples %d vs %d", st2.Len(), st.Len())
			}
			for i := 0; i < st.Len(); i++ {
				for j := range st.Tuple(i) {
					if !st2.Tuple(i)[j].Equal(st.Tuple(i)[j]) {
						t.Fatalf("tuple %d col %d differs", i, j)
					}
				}
			}
			if !st2.HasAttr("alt2") {
				t.Fatal("computed attribute lost")
			}
			if _, ok := st2.Index("state"); !ok {
				t.Fatal("index lost")
			}
			if _, err := d2.LoadProgram("prog"); err != nil {
				t.Fatal(err)
			}
			if _, err := d2.LoadDef("defn"); err != nil {
				t.Fatal(err)
			}

			// Chunk-backed tables stay writable through the CoW path:
			// re-append row 0 and the catalog serves the longer version.
			if err := d2.AppendTuple("Stations", st2.Tuple(0)); err != nil {
				t.Fatal(err)
			}
			st3, err := d2.Table("Stations")
			if err != nil {
				t.Fatal(err)
			}
			if st3.Len() != st.Len()+1 {
				t.Fatalf("append on chunk-backed table: %d rows, want %d", st3.Len(), st.Len()+1)
			}
		})
	}
}

// TestLoadBackendMissingManifest surfaces ErrNoSegment through the
// typed db error.
func TestLoadBackendMissingManifest(t *testing.T) {
	d := New()
	err := d.LoadBackend(rel.NewMemBackend())
	if !errors.Is(err, rel.ErrNoSegment) {
		t.Fatalf("LoadBackend on empty backend: %v", err)
	}
}

// TestSnapshotFormatErrors: headerless, foreign, and future-versioned
// streams all fail with the ErrBadSnapshotFormat sentinel, reachable
// through errors.Is across the *Error wrapper.
func TestSnapshotFormatErrors(t *testing.T) {
	d := New()
	if err := d.Load(bytes.NewBufferString("junk")); !errors.Is(err, ErrBadSnapshotFormat) {
		t.Fatalf("foreign stream: %v", err)
	}
	if err := d.Load(bytes.NewBufferString("")); !errors.Is(err, ErrBadSnapshotFormat) {
		t.Fatalf("empty stream: %v", err)
	}

	var buf bytes.Buffer
	if err := seeded(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	future := append([]byte(nil), good...)
	future[7] = snapVersion + 1
	if err := d.Load(bytes.NewReader(future)); !errors.Is(err, ErrBadSnapshotFormat) {
		t.Fatalf("future version: %v", err)
	}
	var de *Error
	err := d.Load(bytes.NewReader(future))
	if !errors.As(err, &de) || de.Op != "load" {
		t.Fatalf("format error lost the typed wrapper: %v", err)
	}
	if err := d.Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("good stream after failures: %v", err)
	}

	// A manifest blob with a bad header fails the same way.
	b := rel.NewMemBackend()
	if err := b.PutBlob("manifest", []byte("garbage....")); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadBackend(b); !errors.Is(err, ErrBadSnapshotFormat) {
		t.Fatalf("garbage manifest: %v", err)
	}
}

// TestBackendLoadUnderQuota loads a catalog whose data exceeds the
// chunk quota and reads it back correctly — the load itself stays
// O(manifest) and the reads churn the cache.
func TestBackendLoadUnderQuota(t *testing.T) {
	big := rel.New("Big", rel.MustSchema(
		rel.Column{Name: "id", Kind: types.Int},
		rel.Column{Name: "payload", Kind: types.Text},
	))
	for i := 0; i < 60000; i++ {
		big.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewText("payload-payload-payload-payload"),
		})
	}
	d := New()
	if err := d.CreateTable(big); err != nil {
		t.Fatal(err)
	}
	b := rel.NewMemBackend()
	if err := d.SaveBackend(b); err != nil {
		t.Fatal(err)
	}

	prev := rel.MemoryQuota()
	rel.DropResidentChunks()
	// The quota must clear one chunk (the cache keeps the chunk being
	// read resident) while staying well under the ~2.4MB dataset.
	rel.SetMemoryQuota(512 << 10)
	rel.ResetChunkCacheStats()
	defer func() {
		rel.SetMemoryQuota(prev)
		rel.DropResidentChunks()
		rel.ResetChunkCacheStats()
	}()

	d2 := New()
	if err := d2.LoadBackend(b); err != nil {
		t.Fatal(err)
	}
	tb, err := d2.Table("Big")
	if err != nil {
		t.Fatal(err)
	}
	out, err := rel.Restrict(tb, expr.MustParse("id % 1000 = 7"), rel.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 60 {
		t.Fatalf("restrict under quota: %d rows, want 60", out.Len())
	}
	st := rel.ChunkCacheStats()
	if st.Quota > 0 && st.Peak > st.Quota {
		t.Fatalf("peak %d exceeded quota %d during backend load+scan", st.Peak, st.Quota)
	}
}

// TestSaveLoadComputedLiterals: computed definitions persist as source,
// so a literal must print back to the same kind and value. "id / 2.0" is
// Float division (3.5 for id 7); printed as "id / 2" it would reload as
// Int division. A Text literal holding a backslash must reparse at all.
func TestSaveLoadComputedLiterals(t *testing.T) {
	defs := map[string]string{"half": "id / 2.0", "slashed": `name || '\\'`, "negz": "-0. * altitude"}
	d := seeded(t)
	err := d.AlterTable("Stations", func(st *rel.Relation) error {
		for name, src := range defs {
			if err := st.AddComputed(name, expr.MustParse(src)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Table("Stations")
	if err != nil {
		t.Fatal(err)
	}
	roundTrips := map[string]func() (*Database, error){
		"snapshot": func() (*Database, error) {
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				return nil, err
			}
			d2 := New()
			return d2, d2.Load(&buf)
		},
		"backend": func() (*Database, error) {
			b := rel.NewMemBackend()
			if err := d.SaveBackend(b); err != nil {
				return nil, err
			}
			d2 := New()
			return d2, d2.LoadBackend(b)
		},
	}
	for how, roundTrip := range roundTrips {
		d2, err := roundTrip()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		st2, err := d2.Table("Stations")
		if err != nil {
			t.Fatal(err)
		}
		for name := range defs {
			for i := 0; i < st.Len(); i++ {
				want, got := st.Row(i).Attr(name), st2.Row(i).Attr(name)
				if want.Kind() != got.Kind() || want.String() != got.String() {
					t.Fatalf("%s: %s row %d reads %s %v after load, %s %v before", how, name, i, got.Kind(), got, want.Kind(), want)
				}
			}
		}
	}
}

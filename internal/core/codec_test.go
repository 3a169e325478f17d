package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"vkgraph/internal/snapfmt"
)

// TestSnapshotBytesAreAFunctionOfState: an engine with two build-time
// attributes and one added at run time, saved twice, gives the same bytes,
// and so does the engine loaded from them. A map written in map order
// would make them differ.
func TestSnapshotBytesAreAFunctionOfState(t *testing.T) {
	p := DefaultParams()
	p.Attrs = []string{"year", "age"}
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]
	res, err := eng.TopK(DirTail, u, likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetAttr("rating", res.Predictions[0].Entity, 8.25); err != nil {
		t.Fatal(err)
	}
	save := func(e *Engine) []byte {
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(eng)
	if !bytes.Equal(save(eng), first) {
		t.Fatal("two saves of one engine differ")
	}
	loaded, err := LoadEngine(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(loaded), first) {
		t.Fatal("the loaded engine saves to other bytes")
	}
}

// TestParamsRoundTripEveryField sets every field of the meta section —
// Params and the rtree.Options inside it included — to a non-zero value
// found by reflection, and round-trips it. A field added to either struct
// without its codec comes back zero and fails here.
func TestParamsRoundTripEveryField(t *testing.T) {
	var want wireMeta
	fillNonZero(t, reflect.ValueOf(&want).Elem(), "wireMeta")
	var w snapfmt.Writer
	want.encode(&w)
	got, err := decodeMeta(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("meta round trip = %+v, want %+v", got, want)
	}
}

// fillNonZero sets every field below v to a non-zero value: 1 for
// integers (Bulk for the index mode, a valid alpha), 1.5 for floats, a
// one-element slice of a non-zero value.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), path+"[0]")
	default:
		t.Fatalf("%s: no non-zero value for a %s field; extend fillNonZero and the codec", path, v.Kind())
	}
}

// FuzzMetaAndRecords drives the decoders of the meta section and of the
// insert and setattr WAL records over arbitrary payloads, below the
// checksum that guards them; kind picks the decoder. Every failure wraps
// snapfmt.ErrCorrupt, and a payload that decodes encodes back to itself.
func FuzzMetaAndRecords(f *testing.F) {
	p := defaultTestParams()
	meta := wireMeta{Params: p, Mode: Bulk, WalGen: 7, EffAttrs: append(p.Attrs, "rating")}
	ins := walInsertRec{Name: "new", Typ: "movie", Facts: []Fact{{Rel: 0, Other: 3, NewIsHead: true}, {Rel: 1, Other: 9}},
		AttrNames: []string{"rating", "year"}, AttrVals: []float64{math.NaN(), 1999}}
	set := walSetAttrRec{Name: "rating", ID: 42, Val: -0.5}
	for kind, enc := range []func(*snapfmt.Writer){meta.encode, ins.encode, set.encode} {
		var w snapfmt.Writer
		enc(&w)
		f.Add(uint8(kind), w.Bytes())
		f.Add(uint8(kind), w.Bytes()[:len(w.Bytes())-1])
	}
	f.Add(uint8(1), []byte{})

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var w snapfmt.Writer
		var err error
		switch kind % 3 {
		case 0:
			var m wireMeta
			if m, err = decodeMeta(data); err == nil {
				m.encode(&w)
			}
		case 1:
			var ir walInsertRec
			if ir, err = decodeInsertRec(data); err == nil {
				ir.encode(&w)
			}
		case 2:
			var sr walSetAttrRec
			if sr, err = decodeSetAttrRec(data); err == nil {
				sr.encode(&w)
			}
		}
		if err != nil {
			if !errors.Is(err, snapfmt.ErrCorrupt) {
				t.Fatalf("decoder %d = %v, want an error wrapping ErrCorrupt", kind%3, err)
			}
			return
		}
		if !bytes.Equal(w.Bytes(), data) {
			t.Fatalf("decoder %d: decoding and encoding changed the payload", kind%3)
		}
	})
}

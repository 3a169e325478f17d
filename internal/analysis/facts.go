package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// FactStore holds every fact exported during one checker run, keyed by the
// object or package the fact is attached to. One store spans the whole run:
// because the checker analyzes packages in dependency order, by the time a
// pass asks ImportObjectFact for an object of an imported package, that
// package's analysis has already exported into the same store. Facts never
// leave the process. Keying by object identity works because the loader
// type-checks every package of the run from source, once, and dependents
// import that same *types.Package.
type FactStore struct {
	obj map[types.Object]map[reflect.Type]Fact
	pkg map[*types.Package]map[reflect.Type]Fact

	// objLog/pkgLog record export order for FinalPass, which wants a
	// deterministic whole-program view.
	objLog []ObjectFact
	pkgLog []PackageFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		obj: make(map[types.Object]map[reflect.Type]Fact),
		pkg: make(map[*types.Package]map[reflect.Type]Fact),
	}
}

// BindPass wires the store's fact hooks into a pass.
func (s *FactStore) BindPass(pass *Pass) {
	pass.ExportObjectFact = func(obj types.Object, f Fact) {
		if obj == nil || f == nil {
			panic("analysis: ExportObjectFact with nil object or fact")
		}
		m := s.obj[obj]
		if m == nil {
			m = make(map[reflect.Type]Fact)
			s.obj[obj] = m
		}
		t := reflect.TypeOf(f)
		if _, dup := m[t]; !dup {
			s.objLog = append(s.objLog, ObjectFact{Object: obj, Fact: f})
		}
		m[t] = f
	}
	pass.ImportObjectFact = func(obj types.Object, f Fact) bool {
		return copyFact(s.obj[obj], f)
	}
	pass.ExportPackageFact = func(f Fact) {
		if f == nil {
			panic("analysis: ExportPackageFact with nil fact")
		}
		m := s.pkg[pass.Pkg]
		if m == nil {
			m = make(map[reflect.Type]Fact)
			s.pkg[pass.Pkg] = m
		}
		t := reflect.TypeOf(f)
		if _, dup := m[t]; !dup {
			s.pkgLog = append(s.pkgLog, PackageFact{Package: pass.Pkg, Fact: f})
		}
		m[t] = f
	}
	pass.ImportPackageFact = func(pkg *types.Package, f Fact) bool {
		return copyFact(s.pkg[pkg], f)
	}
}

// copyFact copies the stored fact of f's concrete type into f.
func copyFact(m map[reflect.Type]Fact, f Fact) bool {
	if m == nil {
		return false
	}
	stored, ok := m[reflect.TypeOf(f)]
	if !ok {
		return false
	}
	rv := reflect.ValueOf(f)
	if rv.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", f))
	}
	rv.Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// FactsFor returns the facts exported for one analyzer's FinalPass: every
// logged fact whose concrete type appears in the analyzer's FactTypes, in
// export order.
func (s *FactStore) FactsFor(a *Analyzer) (objs []ObjectFact, pkgs []PackageFact) {
	want := make(map[reflect.Type]bool, len(a.FactTypes))
	for _, ft := range a.FactTypes {
		want[reflect.TypeOf(ft)] = true
	}
	for _, of := range s.objLog {
		if want[reflect.TypeOf(of.Fact)] {
			objs = append(objs, of)
		}
	}
	for _, pf := range s.pkgLog {
		if want[reflect.TypeOf(pf.Fact)] {
			pkgs = append(pkgs, pf)
		}
	}
	return objs, pkgs
}

package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/rel"
)

// TableSource resolves table names for Add Table boxes; the db package
// implements it.
type TableSource interface {
	// Table returns the named base relation.
	Table(name string) (*rel.Relation, error)
	// TableNames lists available tables for the menu of tables.
	TableNames() []string
}

// FireContext carries the environment a box firing may need.
type FireContext struct {
	Tables TableSource
	// Registry gives higher-order boxes (the lifting wrappers of
	// Section 2) access to the kinds they wrap.
	Registry *Registry
	// Exec is the requesting evaluation's execution setting (its
	// rel.Path and scan worker bound), passed to every relational
	// operator the box runs.
	Exec rel.Exec
}

// FireFunc computes a box's outputs from its inputs. Inputs arrive
// already promoted to the box's declared input port types. The returned
// slice must have one value per declared output.
type FireFunc func(fc *FireContext, p Params, in []Value) ([]Value, error)

// Kind describes a registered box kind: how to derive its port types from
// parameters, and how to fire it. ExampleParams supply defaults so that
// Apply Box can shape a kind without user parameters.
type Kind struct {
	Name          string
	Doc           string
	ExampleParams Params
	Ports         func(p Params) (in, out []PortType, err error)
	Fire          FireFunc
	// FireDelta, when set, maintains the kind's outputs incrementally
	// from input tuple deltas (see delta.go). Kinds without one are
	// delta-opaque and fall back to full refiring.
	FireDelta DeltaFireFunc
}

// Registry maps kind names to kinds. The "menu of all boxes available"
// is Names(); big programmers extend the system by registering more kinds
// (principle 5, the big programmer / little programmer model).
type Registry struct {
	kinds map[string]*Kind
}

// NewRegistry returns a registry preloaded with every builtin Tioga-2 box
// kind.
func NewRegistry() *Registry {
	r := &Registry{kinds: make(map[string]*Kind)}
	registerBuiltins(r)
	return r
}

// Register adds a kind, rejecting duplicates.
func (r *Registry) Register(k *Kind) error {
	if k.Name == "" || k.Ports == nil || k.Fire == nil {
		return fmt.Errorf("dataflow: incomplete kind registration %q: %w", k.Name, ErrBadRegistration)
	}
	if _, dup := r.kinds[k.Name]; dup {
		return fmt.Errorf("dataflow: kind %q already registered: %w", k.Name, ErrBadRegistration)
	}
	r.kinds[k.Name] = k
	return nil
}

// MustRegister is Register that panics on error, for builtin setup.
func (r *Registry) MustRegister(k *Kind) {
	if err := r.Register(k); err != nil {
		panic(err)
	}
}

// Kind returns the named kind.
func (r *Registry) Kind(name string) (*Kind, error) {
	k, ok := r.kinds[name]
	if !ok {
		return nil, fmt.Errorf("dataflow: unknown box kind %q: %w", name, ErrUnknownKind)
	}
	return k, nil
}

// Has reports whether the kind exists.
func (r *Registry) Has(name string) bool {
	_, ok := r.kinds[name]
	return ok
}

// Names returns all kind names sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.kinds))
	for n := range r.kinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

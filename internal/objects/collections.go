package objects

import (
	"encoding/binary"
	"fmt"

	"crucial/internal/core"
)

// List is a linearizable growable list of values of any wire type.
type List struct {
	items []any
}

// NewList builds an empty list.
func NewList(_ []any) (core.Object, error) {
	return &List{}, nil
}

// Call dispatches a list method.
func (l *List) Call(_ core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Add":
		if len(args) < 1 {
			return nil, fmt.Errorf("objects: Add needs a value")
		}
		l.items = append(l.items, args[0])
		return []any{int64(len(l.items) - 1)}, nil
	case "Get":
		i, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(l.items)) {
			return nil, fmt.Errorf("objects: index %d out of range [0,%d)", i, len(l.items))
		}
		return []any{l.items[i]}, nil
	case "Set":
		i, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("objects: Set needs index and value")
		}
		if i < 0 || i >= int64(len(l.items)) {
			return nil, fmt.Errorf("objects: index %d out of range [0,%d)", i, len(l.items))
		}
		old := l.items[i]
		l.items[i] = args[1]
		return []any{old}, nil
	case "Remove":
		i, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(l.items)) {
			return nil, fmt.Errorf("objects: index %d out of range [0,%d)", i, len(l.items))
		}
		old := l.items[i]
		l.items = append(l.items[:i], l.items[i+1:]...)
		return []any{old}, nil
	case "Size":
		return []any{int64(len(l.items))}, nil
	case "Clear":
		l.items = nil
		return nil, nil
	case "GetAll":
		out := make([]any, len(l.items))
		copy(out, l.items)
		return []any{out}, nil
	case "Contains":
		if len(args) < 1 {
			return nil, fmt.Errorf("objects: Contains needs a value")
		}
		for _, it := range l.items {
			if valueEqual(it, args[0]) {
				return []any{true}, nil
			}
		}
		return []any{false}, nil
	default:
		return nil, errUnknownMethod("List", method)
	}
}

// Snapshot encodes the list contents.
func (l *List) Snapshot() ([]byte, error) {
	b, err := core.AppendValues(core.NewFrame(stateList, 0, 2), l.items)
	if err != nil {
		return nil, fmt.Errorf("objects: snapshot List: %w", err)
	}
	return b, nil
}

// Restore replaces the list contents.
func (l *List) Restore(data []byte) error {
	items, err := core.DecodeFrame(data, stateList, (*core.Reader).Values)
	if err != nil {
		return restoreErr("List", err)
	}
	l.items = items
	return nil
}

// Map is a linearizable string-keyed map of values of any wire type.
type Map struct {
	entries map[string]any
}

// NewMap builds an empty map.
func NewMap(_ []any) (core.Object, error) {
	return &Map{entries: make(map[string]any)}, nil
}

// Call dispatches a map method.
func (m *Map) Call(_ core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Put":
		k, err := core.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("objects: Put needs key and value")
		}
		old, had := m.entries[k]
		m.entries[k] = args[1]
		if !had {
			old = nil
		}
		return []any{old, had}, nil
	case "Get":
		k, err := core.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		v, ok := m.entries[k]
		if !ok {
			return []any{nil, false}, nil
		}
		return []any{v, true}, nil
	case "PutIfAbsent":
		k, err := core.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("objects: PutIfAbsent needs key and value")
		}
		if cur, ok := m.entries[k]; ok {
			return []any{cur, false}, nil
		}
		m.entries[k] = args[1]
		return []any{args[1], true}, nil
	case "Remove":
		k, err := core.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		old, had := m.entries[k]
		delete(m.entries, k)
		if !had {
			old = nil
		}
		return []any{old, had}, nil
	case "ContainsKey":
		k, err := core.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		_, ok := m.entries[k]
		return []any{ok}, nil
	case "Size":
		return []any{int64(len(m.entries))}, nil
	case "Keys":
		keys := make([]string, 0, len(m.entries))
		for k := range m.entries {
			keys = append(keys, k)
		}
		return []any{keys}, nil
	case "Clear":
		m.entries = make(map[string]any)
		return nil, nil
	default:
		return nil, errUnknownMethod("Map", method)
	}
}

// Snapshot encodes the map contents, in map iteration order: two
// snapshots of one map may differ in bytes and still decode equal.
func (m *Map) Snapshot() ([]byte, error) {
	b := binary.AppendUvarint(core.NewFrame(stateMap, 0, 2), uint64(len(m.entries)))
	var err error
	for k, v := range m.entries {
		if b, err = core.AppendValue(core.AppendString(b, k), v); err != nil {
			return nil, fmt.Errorf("objects: snapshot Map entry %q: %w", k, err)
		}
	}
	return b, nil
}

// Restore replaces the map contents. A key listed twice is an error: no
// snapshot holds one.
func (m *Map) Restore(data []byte) error {
	entries, err := core.DecodeFrame(data, stateMap, readEntries)
	if err != nil {
		return restoreErr("Map", err)
	}
	m.entries = entries
	return nil
}

func readEntries(r *core.Reader) (map[string]any, error) {
	n, err := r.Count(2)
	if err != nil {
		return nil, err
	}
	entries := make(map[string]any, n)
	for i := 0; i < n; i++ {
		k, err := r.Str()
		if err != nil {
			return nil, err
		}
		if _, dup := entries[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		if entries[k], err = r.Value(); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// KV is a single binary cell. It backs the "Infinispan as a plain key-value
// store" baseline of Table 2 and the PyWren-style polling synchronization of
// Fig. 6 (a mapper writes its output cell; the driver polls for existence).
type KV struct {
	data []byte
	set  bool
}

// NewKV builds an empty cell.
func NewKV(_ []any) (core.Object, error) {
	return &KV{}, nil
}

// Call dispatches a KV method.
func (c *KV) Call(_ core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Put":
		v, err := core.Arg[[]byte](args, 0)
		if err != nil {
			return nil, err
		}
		c.data = make([]byte, len(v))
		copy(c.data, v)
		c.set = true
		return nil, nil
	case "Get":
		if !c.set {
			return []any{[]byte(nil), false}, nil
		}
		out := make([]byte, len(c.data))
		copy(out, c.data)
		return []any{out, true}, nil
	case "Exists":
		return []any{c.set}, nil
	case "Delete":
		c.data = nil
		c.set = false
		return nil, nil
	default:
		return nil, errUnknownMethod("KV", method)
	}
}

// Snapshot encodes the cell.
func (c *KV) Snapshot() ([]byte, error) {
	return core.AppendBytes(core.AppendBool(core.NewFrame(stateKV, 1+len(c.data), 1), c.set), c.data), nil
}

// Restore replaces the cell.
func (c *KV) Restore(data []byte) error {
	s, err := core.DecodeFrame(data, stateKV, func(r *core.Reader) (s KV, err error) {
		if s.set, err = r.Bool(); err == nil {
			s.data, err = r.Bytes()
		}
		return s, err
	})
	if err != nil {
		return restoreErr("KV", err)
	}
	*c = s
	return nil
}

var (
	_ core.Object      = (*List)(nil)
	_ core.Snapshotter = (*List)(nil)
	_ core.Object      = (*Map)(nil)
	_ core.Snapshotter = (*Map)(nil)
	_ core.Object      = (*KV)(nil)
	_ core.Snapshotter = (*KV)(nil)
)

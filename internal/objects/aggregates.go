package objects

import (
	"fmt"

	"crucial/internal/core"
)

// Aggregate objects support the paper's "fast aggregates through method
// call shipping" (Section 4.2): instead of pulling partial results to the
// client and reducing locally (an O(N^2) AllReduce), cloud threads push
// small granules into a server-side accumulator — O(N) messages total.

// DoubleAdder accumulates float64 contributions.
type DoubleAdder struct {
	sum   float64
	count int64
}

// NewDoubleAdder builds a zeroed adder.
func NewDoubleAdder(_ []any) (core.Object, error) {
	return &DoubleAdder{}, nil
}

// Call dispatches an adder method.
func (d *DoubleAdder) Call(_ core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Add":
		v, err := core.Arg[float64](args, 0)
		if err != nil {
			return nil, err
		}
		d.sum += v
		d.count++
		return nil, nil
	case "Sum":
		return []any{d.sum}, nil
	case "Count":
		return []any{d.count}, nil
	case "SumThenReset":
		s := d.sum
		d.sum, d.count = 0, 0
		return []any{s}, nil
	case "Reset":
		d.sum, d.count = 0, 0
		return nil, nil
	default:
		return nil, errUnknownMethod("DoubleAdder", method)
	}
}

// Snapshot encodes the accumulator.
func (d *DoubleAdder) Snapshot() ([]byte, error) {
	return core.AppendVarint(core.AppendFloat64(core.NewFrame(stateAdder, 8, 1), d.sum), d.count), nil
}

// Restore replaces the accumulator.
func (d *DoubleAdder) Restore(data []byte) error {
	s, err := core.DecodeFrame(data, stateAdder, func(r *core.Reader) (s DoubleAdder, err error) {
		if s.sum, err = r.Float64(); err == nil {
			s.count, err = r.Varint()
		}
		return s, err
	})
	if err != nil {
		return restoreErr("DoubleAdder", err)
	}
	*d = s
	return nil
}

// AtomicDoubleArray is a fixed-length array of float64 with element-wise
// and bulk aggregate operations. Logistic regression shares its weight
// vector through one of these: workers AddAll their sub-gradients, the
// server aggregates in place. Init: length (int).
type AtomicDoubleArray struct {
	data []float64
}

// NewAtomicDoubleArray builds the array from its init arguments.
func NewAtomicDoubleArray(init []any) (core.Object, error) {
	n, err := optInt64(init, 0, 0)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("objects: negative double array length %d", n)
	}
	a := &AtomicDoubleArray{data: make([]float64, n)}
	if len(init) > 1 {
		preload, err := core.Arg[[]float64](init, 1)
		if err != nil {
			return nil, err
		}
		copy(a.data, preload)
	}
	return a, nil
}

// Call dispatches a double-array method.
func (a *AtomicDoubleArray) Call(_ core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Length":
		return []any{int64(len(a.data))}, nil
	case "Get":
		i, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(a.data)) {
			return nil, fmt.Errorf("objects: index %d out of range [0,%d)", i, len(a.data))
		}
		return []any{a.data[i]}, nil
	case "Set":
		i, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		v, err := core.Arg[float64](args, 1)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(a.data)) {
			return nil, fmt.Errorf("objects: index %d out of range [0,%d)", i, len(a.data))
		}
		a.data[i] = v
		return nil, nil
	case "AddAndGet":
		i, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		v, err := core.Arg[float64](args, 1)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(a.data)) {
			return nil, fmt.Errorf("objects: index %d out of range [0,%d)", i, len(a.data))
		}
		a.data[i] += v
		return []any{a.data[i]}, nil
	case "GetAll":
		out := make([]float64, len(a.data))
		copy(out, a.data)
		return []any{out}, nil
	case "SetAll":
		v, err := core.Arg[[]float64](args, 0)
		if err != nil {
			return nil, err
		}
		a.data = make([]float64, len(v))
		copy(a.data, v)
		return nil, nil
	case "AddAll":
		v, err := core.Arg[[]float64](args, 0)
		if err != nil {
			return nil, err
		}
		if len(v) != len(a.data) {
			return nil, fmt.Errorf("objects: AddAll length %d != array length %d", len(v), len(a.data))
		}
		for i := range v {
			a.data[i] += v[i]
		}
		return nil, nil
	case "ScaleAll":
		f, err := core.Arg[float64](args, 0)
		if err != nil {
			return nil, err
		}
		for i := range a.data {
			a.data[i] *= f
		}
		return nil, nil
	case "FillZero":
		for i := range a.data {
			a.data[i] = 0
		}
		return nil, nil
	default:
		return nil, errUnknownMethod("AtomicDoubleArray", method)
	}
}

// Snapshot encodes the array.
func (a *AtomicDoubleArray) Snapshot() ([]byte, error) {
	return core.AppendFloat64s(core.NewFrame(stateDoubleArray, 8*len(a.data), 1), a.data), nil
}

// Restore replaces the array.
func (a *AtomicDoubleArray) Restore(data []byte) error {
	v, err := core.DecodeFrame(data, stateDoubleArray, (*core.Reader).Float64s)
	if err != nil {
		return restoreErr("AtomicDoubleArray", err)
	}
	a.data = v
	return nil
}

var (
	_ core.Object      = (*DoubleAdder)(nil)
	_ core.Snapshotter = (*DoubleAdder)(nil)
	_ core.Object      = (*AtomicDoubleArray)(nil)
	_ core.Snapshotter = (*AtomicDoubleArray)(nil)
)

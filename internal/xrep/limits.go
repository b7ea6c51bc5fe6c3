package xrep

import (
	"errors"
	"fmt"
)

// Limits captures the system-wide type invariants of §3.3: "the meaning of
// a type must be fixed and invariant over all the nodes". A node with a
// wider native representation must still reject values outside the
// system-wide bounds, "otherwise it might be impossible to send an integer
// value in a message because it was too big."
type Limits struct {
	// IntBits is the width of the system-wide signed integer type. Zero
	// means the full 64 bits.
	IntBits int
	// MaxStringLen bounds string and byte values. Zero means unbounded.
	MaxStringLen int
	// MaxSeqLen bounds sequence lengths. Zero means unbounded.
	MaxSeqLen int
	// MaxDepth bounds value-tree nesting. Zero means a default of 64;
	// negative disables the check.
	MaxDepth int
}

// DefaultLimits is the system-wide standard used when a configuration does
// not override it: full 64-bit integers and a generous nesting bound.
var DefaultLimits = Limits{MaxDepth: 64}

// Paper24BitLimits reproduces the paper's worked example: a system standard
// of 24-bit integers that every node must enforce regardless of its native
// word size.
var Paper24BitLimits = Limits{IntBits: 24, MaxDepth: 64}

// Validation errors.
var (
	ErrIntRange  = errors.New("xrep: integer outside system-wide bounds")
	ErrTooLong   = errors.New("xrep: value exceeds system-wide length bound")
	ErrTooDeep   = errors.New("xrep: value exceeds system-wide nesting bound")
	ErrNilValue  = errors.New("xrep: nil value")
	ErrEmptyName = errors.New("xrep: record with empty type name")
)

// IntRange returns the inclusive legal range of the system integer type.
func (l Limits) IntRange() (min, max int64) {
	bits := l.IntBits
	if bits <= 0 || bits >= 64 {
		return -1 << 63, 1<<63 - 1
	}
	return -1 << (bits - 1), 1<<(bits-1) - 1
}

// CheckInt validates a single integer against the system-wide bound.
func (l Limits) CheckInt(v int64) error {
	min, max := l.IntRange()
	if v < min || v > max {
		return fmt.Errorf("%w: %d not in [%d, %d]", ErrIntRange, v, min, max)
	}
	return nil
}

// Validate walks a value tree and checks every system-wide invariant. It is
// called by the message layer at encode time, so a violating value can
// never leave its node.
func (l Limits) Validate(v Value) error {
	return l.validate(v, 0, l.maxDepth())
}

// ValidateSeq is Validate for a sequence — a message's argument list —
// without boxing it in a Value.
func (l Limits) ValidateSeq(s Seq) error {
	return l.validateSeq(s, 0, l.maxDepth())
}

func (l Limits) maxDepth() int {
	if l.MaxDepth == 0 {
		return 64
	}
	return l.MaxDepth
}

func (l Limits) validateSeq(s Seq, depth, maxDepth int) error {
	if maxDepth > 0 && depth > maxDepth {
		return fmt.Errorf("%w: depth %d", ErrTooDeep, depth)
	}
	if l.MaxSeqLen > 0 && len(s) > l.MaxSeqLen {
		return fmt.Errorf("%w: sequence of %d", ErrTooLong, len(s))
	}
	for i, e := range s {
		if err := l.validate(e, depth+1, maxDepth); err != nil {
			return fmt.Errorf("seq[%d]: %w", i, err)
		}
	}
	return nil
}

func (l Limits) validate(v Value, depth, maxDepth int) error {
	if v == nil {
		return ErrNilValue
	}
	if maxDepth > 0 && depth > maxDepth {
		return fmt.Errorf("%w: depth %d", ErrTooDeep, depth)
	}
	switch x := v.(type) {
	case Null, Bool, Real, PortName:
		return nil
	case Int:
		return l.CheckInt(int64(x))
	case Str:
		if l.MaxStringLen > 0 && len(x) > l.MaxStringLen {
			return fmt.Errorf("%w: string of %d bytes", ErrTooLong, len(x))
		}
		return nil
	case Bytes:
		if l.MaxStringLen > 0 && len(x) > l.MaxStringLen {
			return fmt.Errorf("%w: bytes of %d", ErrTooLong, len(x))
		}
		return nil
	case Token:
		if l.MaxStringLen > 0 && len(x.Body) > l.MaxStringLen {
			return fmt.Errorf("%w: token body of %d bytes", ErrTooLong, len(x.Body))
		}
		return nil
	case Seq:
		return l.validateSeq(x, depth, maxDepth)
	case Rec:
		if x.Name == "" {
			return ErrEmptyName
		}
		for i, f := range x.Fields {
			if err := l.validate(f, depth+1, maxDepth); err != nil {
				return fmt.Errorf("%s.field[%d]: %w", x.Name, i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("xrep: unknown value type %T", v)
	}
}

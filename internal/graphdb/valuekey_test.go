package graphdb

import (
	"fmt"
	"math"
	"testing"
)

// legacyValueKey is the encoder valueKey replaced; the type-switched
// version must stay byte-identical for every property type the CPG uses,
// or FindNodes equality would silently change.
func legacyValueKey(v any) string { return fmt.Sprintf("%T:%v", v, v) }

func TestValueKeyMatchesLegacyEncoding(t *testing.T) {
	values := []any{
		// bools (IS_SINK, IS_SOURCE, IS_STATIC, …)
		true, false,
		// ints (PARAM_COUNT, STMT_INDEX, …)
		0, 1, -1, 42, -37, math.MaxInt, math.MinInt,
		// strings (NAME, CLASS, SINK_TYPE, …)
		"", "exec", "java.lang.Runtime#exec", "with space", "uniçode", "1", "[1 2]",
		// float64 (none today, but in the supported scalar set)
		0.0, 1.5, -2.25, 0.1, 1e21, -1e-7, math.Pi, float64(7),
		// []int (POLLUTED_POSITION, TRIGGER_CONDITION)
		[]int{}, []int{0}, []int{1, 2, 3}, []int{-1, -1}, []int{0, 0}, []int{5, -3},
		// fallback path: a type outside the switch still matches fmt
		int64(9), uint(3), 3.5e2,
	}
	for _, v := range values {
		got, want := valueKey(v), legacyValueKey(v)
		if got != want {
			t.Errorf("valueKey(%#v) = %q, want legacy %q", v, got, want)
		}
	}
}

func TestValueKeyCollisionFree(t *testing.T) {
	// Distinct values across the supported set must produce distinct keys;
	// a collision would make FindNodes match unequal values.
	values := []any{
		true, false, 0, 1, -1, "", "1", "true", "[1 2]", 1.0, 0.5,
		[]int{}, []int{1}, []int{1, 2}, []int{12}, "int:1",
	}
	seen := make(map[string]any, len(values))
	for _, v := range values {
		k := valueKey(v)
		if prev, dup := seen[k]; dup {
			t.Errorf("valueKey collision: %#v and %#v both encode to %q", prev, v, k)
		}
		seen[k] = v
	}
}

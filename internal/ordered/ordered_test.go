package ordered

import (
	"slices"
	"testing"
)

type nodeID int

func TestKeys(t *testing.T) {
	m := map[nodeID]string{40: "a", 3: "b", 45: "c", -1: "d", 12: "e"}
	want := []nodeID{-1, 3, 12, 40, 45}
	for i := 0; i < 20; i++ {
		if got := Keys(m); !slices.Equal(got, want) {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	if got := Keys(map[string]bool{"b": true, "a": false}); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("Keys over strings = %v", got)
	}
	if got := Keys(map[int]int(nil)); got == nil || len(got) != 0 {
		t.Errorf("Keys(nil) = %#v, want an empty non-nil slice", got)
	}
}

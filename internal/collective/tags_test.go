package collective

import "testing"

// TestTagBasesApart: the collective families' tag bases (allgather.go's
// one const block) sit at least 0x1000 apart, so no family's step
// offsets reach another's base, and all sit below tagEnd, which sizes
// Group's stream tables.
func TestTagBasesApart(t *testing.T) {
	bases := map[string]int{
		"tagRing": tagRing, "tagRecDouble": tagRecDouble, "tagGather": tagGather,
		"tagBcast": tagBcast, "tagAlltoall": tagAlltoall, "tagAllreduce": tagAllreduce,
		"tagBruck": tagBruck, "tagGatherList": tagGatherList, "tagRingC": tagRingC,
		"tagListC": tagListC, "tagSeg": tagSeg, "tagAlltoallC": tagAlltoallC,
		"tagAllreduceV": tagAllreduceV, "tagPipe": tagPipe, "tagToLeader": tagToLeader,
	}
	for a, x := range bases {
		if x>>12 >= tagEnd>>12 {
			t.Errorf("%s = %#x is not below tagEnd = %#x", a, x, tagEnd)
		}
		for b, y := range bases {
			if a < b && x-y < 0x1000 && y-x < 0x1000 {
				t.Errorf("%s = %#x and %s = %#x are less than 0x1000 apart", a, x, b, y)
			}
		}
	}
}

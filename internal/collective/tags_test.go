package collective

import "testing"

// TestTagBasesApart: the collective families' tag bases (allgather.go's
// one const block) sit at least 0x1000 apart, so no family's step
// offsets reach another's base.
func TestTagBasesApart(t *testing.T) {
	bases := map[string]int{
		"tagRing": tagRing, "tagRecDouble": tagRecDouble, "tagGather": tagGather,
		"tagBcast": tagBcast, "tagAlltoall": tagAlltoall, "tagAllreduce": tagAllreduce,
		"tagBruck": tagBruck, "tagGatherList": tagGatherList, "tagRingC": tagRingC,
		"tagListC": tagListC, "tagSeg": tagSeg, "tagAlltoallC": tagAlltoallC,
		"tagAllreduceV": tagAllreduceV, "tagPipe": tagPipe,
	}
	for a, x := range bases {
		for b, y := range bases {
			if a < b && x-y < 0x1000 && y-x < 0x1000 {
				t.Errorf("%s = %#x and %s = %#x are less than 0x1000 apart", a, x, b, y)
			}
		}
	}
}

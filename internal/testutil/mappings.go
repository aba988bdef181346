package testutil

import (
	"os"
	"strings"
)

// Mappings counts the memory mappings of the file at path in this process,
// or returns -1 where /proc/self/maps cannot tell.  The mapped-snapshot
// lifetime tests use it to see the finalizer release a retired generation.
func Mappings(path string) int {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, path) {
			n++
		}
	}
	return n
}

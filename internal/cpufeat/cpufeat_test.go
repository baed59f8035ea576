package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX512MatchesCPUInfo cross-checks the CPUID/XGETBV detection with
// the flags Linux reports in /proc/cpuinfo, which it lists only when
// the kernel also saves the corresponding register state.
func TestAVX512MatchesCPUInfo(t *testing.T) {
	t.Logf("AVX-512 kernels enabled: %v", AVX512())
	if runtime.GOOS != "linux" {
		t.Skip("no /proc/cpuinfo on " + runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(value) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := runtime.GOARCH == "amd64" && flags["avx512f"] && flags["avx512dq"] && flags["popcnt"]
	if AVX512() != want {
		t.Fatalf("AVX512() = %v, /proc/cpuinfo flags say %v", AVX512(), want)
	}
}

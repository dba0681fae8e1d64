package main

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// cpuFeatures names the vector extensions the CPU and the OS both
// enable, so a result can be tied to the kernels it could have used.
func cpuFeatures() []string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf < 7 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return nil
	}
	xcr0 := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	var out []string
	if xcr0&0x6 == 0x6 && ebx7&(1<<5) != 0 {
		out = append(out, "avx2")
	}
	if xcr0&0xe6 == 0xe6 && ebx7&(1<<16) != 0 {
		out = append(out, "avx512f")
	}
	return out
}

package treat

// BucketedMemories counts the matcher's hash-bucketed alpha memories:
// the condition elements whose WMEs are bucketed by their join key.
func BucketedMemories(m *Matcher) int {
	n := 0
	for _, ps := range m.prods {
		for _, mem := range ps.mems {
			if mem.buckets != nil {
				n++
			}
		}
	}
	return n
}

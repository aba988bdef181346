package partition

// CrossLinks counts the links not included in any part.
func (r *Result) CrossLinks() int {
	n := 0
	for _, inc := range r.IncludedLinks {
		if !inc {
			n++
		}
	}
	return n
}

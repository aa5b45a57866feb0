package stats

// ShareBuckets classifies fractional values in [0,1] into the paper's
// Table 13 coverage bands: exactly 100%, [75,100), [50,75), [25,50),
// [0,25). It returns counts in that order.
func ShareBuckets(fracs []float64) [5]int {
	var out [5]int
	for _, f := range fracs {
		switch {
		case f >= 1:
			out[0]++
		case f >= 0.75:
			out[1]++
		case f >= 0.50:
			out[2]++
		case f >= 0.25:
			out[3]++
		default:
			out[4]++
		}
	}
	return out
}

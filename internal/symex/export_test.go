package symex

// Reductions reports how many times, in this process, a window's pivot terms
// and its series-versus-own-centre covariances have been reduced.
func Reductions() (terms, centerCovs int64) {
	return reductions.terms.Load(), reductions.centerCovs.Load()
}

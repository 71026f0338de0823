package symex

// Reductions reports how many times, in this process, a window's cross pass —
// its pivot terms and its series-versus-own-centre covariances — has run.
func Reductions() int64 { return reductions.Load() }

package main

// pins records the SHA-256 of every generated input at the default seed
// (60802). Set-up checks them, so a change anywhere in the repository that
// would alter the benchmark's traffic fails the run instead of moving its
// numbers.
var pins = map[string]string{
	"corpus-2200":        "caeec400ab8f4f819211dd7f62fd41d89c88f4b58832354d2e4e9f372868e1ac",
	"dense-40":           "ec31d156a5d4478fca9692cabcbcc96aba1b89fc4f0aeaa7024726256e7ac2e0",
	"testbed-sim":        "6c43e9ef54799d9f47928e671bd1ce075d34c664b8c7e941fa6a92da800b2042",
	"cncd-mixed.tenant0": "3e5e48ccba32925533f44bea2618c5d5ad9acfdb3964ee2aaf27803fa04507c9",
	"cncd-mixed.tenant1": "b6832cc8ebe8fcb0bf8bbb017d64934e3ccb8b5930ce67796b7662da2ab59e4e",
}

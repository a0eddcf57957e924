package main

// Example runs the program and checks what it prints, so a change that
// moves its numbers fails go test.
func Example() {
	main()
	// Output:
	// == reconstruction ==
	// metric        old        remastered
	// ------------  ---------  ----------
	// requests      20000      20000
	// duration      1.61e+04s  1.61e+04s
	// median Tintt  5.57ms     1.91ms
	// == inferred context ==
	// metric                value
	// --------------------  ---------
	// idle instructions     11816
	// total idle preserved  1.61e+04s
	// async instructions    8182
	// beta (us/sector)      15.812
	// eta (us/sector)       46.005
	// ok: remastered trace ready for simulation studies
}

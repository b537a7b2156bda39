package exp

// CheckGolden exposes the golden-file comparison (and its -update flag)
// to the external exp_test package.
var CheckGolden = checkGolden

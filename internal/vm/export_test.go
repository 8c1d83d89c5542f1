package vm

// CodeCap is the capacity Compile makes a chunk's code with.
var CodeCap = codeCap

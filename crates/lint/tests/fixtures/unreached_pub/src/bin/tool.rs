fn main() {
    mbrpa_core::shipped();
    mbrpa_solver::solve();
}

pub fn solve() -> usize {
    mbrpa_core::REACHED
}

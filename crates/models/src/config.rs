//! Model configurations (§5.1).

/// Configuration of an MoE transformer model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Model name for reports.
    pub name: &'static str,
    /// Hidden (model) dimension.
    pub hidden: u64,
    /// Per-expert MoE intermediate dimension.
    pub moe_intermediate: u64,
    /// Total routed experts per MoE layer.
    pub experts: u32,
    /// Experts activated per token.
    pub top_k: u32,
    /// Query heads.
    pub q_heads: u64,
    /// Key/value heads (GQA).
    pub kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// Decoder layers.
    pub layers: u64,
}

impl ModelConfig {
    /// Mixtral-8x7B.
    pub fn mixtral_8x7b() -> ModelConfig {
        ModelConfig {
            name: "Mixtral8x7B",
            hidden: 4096,
            moe_intermediate: 14336,
            experts: 8,
            top_k: 2,
            q_heads: 32,
            kv_heads: 8,
            head_dim: 128,
            layers: 32,
        }
    }

    /// Qwen3-30B-A3B.
    pub fn qwen3_30b_a3b() -> ModelConfig {
        ModelConfig {
            name: "Qwen3-30B-A3B",
            hidden: 2048,
            moe_intermediate: 768,
            experts: 128,
            top_k: 8,
            q_heads: 32,
            kv_heads: 4,
            head_dim: 128,
            layers: 48,
        }
    }

    /// Bytes per expert for the three SwiGLU weight matrices
    /// (gate + up: `hidden x inter` each, down: `inter x hidden`).
    pub fn expert_weight_bytes(&self) -> u64 {
        3 * self.hidden * self.moe_intermediate * step_core::DTYPE_BYTES
    }

    /// Bytes of KV cache per token (K and V across the KV heads).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.kv_heads * self.head_dim * step_core::DTYPE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixtral_expert_weights_are_hundreds_of_megabytes_total() {
        let m = ModelConfig::mixtral_8x7b();
        // 3 * 4096 * 14336 * 2B = 352 MB per expert... per expert ~336 MiB? No:
        // 3*4096*14336*2 = 352,321,536 bytes ≈ 336 MiB per expert.
        assert_eq!(m.expert_weight_bytes(), 3 * 4096 * 14336 * 2);
    }

    #[test]
    fn qwen_expert_is_small_but_many() {
        let q = ModelConfig::qwen3_30b_a3b();
        assert_eq!(q.expert_weight_bytes(), 3 * 2048 * 768 * 2);
        assert_eq!(q.experts, 128);
        assert_eq!(q.top_k, 8);
    }

    #[test]
    fn kv_bytes_per_token() {
        let q = ModelConfig::qwen3_30b_a3b();
        assert_eq!(q.kv_bytes_per_token(), 2 * 4 * 128 * 2);
        let m = ModelConfig::mixtral_8x7b();
        assert_eq!(m.kv_bytes_per_token(), 2 * 8 * 128 * 2);
    }
}
